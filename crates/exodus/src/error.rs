//! Database-level errors, with stable wire-safe codes.
//!
//! Every [`DbError`] variant maps to a stable numeric [`DbError::code`]
//! so errors round-trip the wire protocol losslessly: the server sends
//! `(code, message)`, the client reconstructs a [`DbError::Remote`]
//! whose `code()` and [`DbError::is_retryable`] agree with the
//! original. The code table is documented in `docs/ERRORS.md`; the
//! `code()` match is exhaustive (no wildcard arm), so adding a variant
//! without assigning a code is a compile error, and the
//! `code_table_is_complete_and_documented` test keeps the docs in sync.

use std::fmt;

use excess_lang::ParseError;
use excess_sema::SemaError;
use exodus_storage::StorageError;
use extra_model::ModelError;

/// Any error the database can raise.
#[derive(Debug)]
pub enum DbError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error.
    Sema(SemaError),
    /// Data-model / storage / runtime error.
    Model(ModelError),
    /// Authorization failure.
    Auth(String),
    /// Catalog misuse (duplicate names, missing objects...).
    Catalog(String),
    /// Transaction misuse (`commit` without `begin`, DDL inside an
    /// explicit transaction...).
    Txn(String),
    /// The writer gate stayed busy past the session's lock timeout.
    /// Nothing was executed; retry freely.
    Busy(String),
    /// Admission control shed the request (connection limit, statement
    /// queue depth, or latency governor). Nothing was executed; retry
    /// after backoff.
    Shed(String),
    /// A commit whose record reached the log but whose fsync failed:
    /// the outcome is unknown until the next recovery. Retryable only
    /// because the workload must re-check and re-issue; the original
    /// attempt may still surface as committed after a restart.
    Indeterminate(String),
    /// The statement needs a write (or an explicit transaction) but
    /// this database is a read-only replica. Not retryable here: the
    /// statement will never succeed on this endpoint — route it to the
    /// primary.
    ReadOnly(String),
    /// The replica's replay horizon trails the primary past the
    /// configured lag bound and reads are being shed. Nothing was
    /// executed; retry after the replica catches up.
    Lagging(String),
    /// A catalog image names an ADT this node's registry lacks, or
    /// binds to a different id. ADT values are stored under their id, so
    /// importing the image would mis-decode them; not retryable — the
    /// node needs the primary's ADTs registered, in the same order.
    AdtMismatch(String),
    /// A wire-protocol or connection failure between a remote client
    /// and the server (framing violation, unexpected EOF, I/O error).
    Net(String),
    /// An error received over the wire, reconstructed on the client
    /// from its stable code and rendered message. `code()` returns the
    /// original code, so retryability survives the round trip even
    /// though the structured payload (parse positions, sema details)
    /// does not.
    Remote {
        /// The originating error's stable code.
        code: u16,
        /// The originating error's rendered message.
        message: String,
    },
}

/// One row of the stable error-code table: code, variant name,
/// meaning, retryable.
pub type CodeRow = (u16, &'static str, &'static str, bool);

/// The stable code table, one row per [`DbError`] variant (plus the
/// indeterminate-commit code that [`DbError::Model`] can also carry).
/// `docs/ERRORS.md` documents exactly these rows; a test enforces it.
pub const CODE_TABLE: &[CodeRow] = &[
    (1001, "Parse", "syntax error", false),
    (1002, "Sema", "semantic (type/name) error", false),
    (1003, "Auth", "authorization failure", false),
    (1004, "Catalog", "catalog misuse", false),
    (1005, "Txn", "transaction misuse", false),
    (1006, "Model", "data-model / storage / runtime error", false),
    (
        1007,
        "ReadOnly",
        "read-only replica refuses writes and explicit transactions",
        false,
    ),
    (
        1008,
        "AdtMismatch",
        "catalog image names an ADT this node lacks or numbers differently",
        false,
    ),
    (2001, "Busy", "writer gate busy past the lock timeout", true),
    (2002, "Shed", "admission control shed the request", true),
    (
        2003,
        "Indeterminate",
        "commit fate unknown until recovery",
        true,
    ),
    (
        2004,
        "Lagging",
        "replica lagging past the configured bound; read shed",
        true,
    ),
    (3001, "Net", "wire-protocol or connection failure", false),
];

impl DbError {
    /// The stable numeric code for this error (see `docs/ERRORS.md`).
    /// Exhaustive by construction: a new variant cannot compile without
    /// choosing a code here.
    pub fn code(&self) -> u16 {
        match self {
            DbError::Parse(_) => 1001,
            DbError::Sema(_) => 1002,
            DbError::Auth(_) => 1003,
            DbError::Catalog(_) => 1004,
            DbError::Txn(_) => 1005,
            // An indeterminate commit can also surface wrapped in a
            // model error (bulk loads, store-level callers); keep its
            // code stable either way.
            DbError::Model(ModelError::Storage(StorageError::IndeterminateCommit { .. })) => 2003,
            DbError::Model(_) => 1006,
            DbError::ReadOnly(_) => 1007,
            DbError::AdtMismatch(_) => 1008,
            DbError::Busy(_) => 2001,
            DbError::Shed(_) => 2002,
            DbError::Indeterminate(_) => 2003,
            DbError::Lagging(_) => 2004,
            DbError::Net(_) => 3001,
            DbError::Remote { code, .. } => *code,
        }
    }

    /// Whether a client may safely retry after this error. Derived from
    /// the code table, so it survives the wire round trip: shed
    /// requests and lock-timeout busies executed nothing, and an
    /// indeterminate commit demands a re-check-and-retry.
    pub fn is_retryable(&self) -> bool {
        let code = self.code();
        CODE_TABLE
            .iter()
            .any(|(c, _, _, retryable)| *c == code && *retryable)
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "parse error: {e}"),
            DbError::Sema(e) => write!(f, "semantic error: {e}"),
            DbError::Model(e) => write!(f, "{e}"),
            DbError::Auth(m) => write!(f, "authorization error: {m}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::ReadOnly(m) => write!(f, "read-only replica: {m}"),
            DbError::AdtMismatch(m) => write!(f, "ADT registry mismatch: {m}"),
            DbError::Busy(m) => write!(f, "busy: {m}"),
            DbError::Shed(m) => write!(f, "shed: {m}"),
            DbError::Indeterminate(m) => write!(f, "indeterminate commit: {m}"),
            DbError::Lagging(m) => write!(f, "replica lagging: {m}"),
            DbError::Net(m) => write!(f, "network error: {m}"),
            DbError::Remote { code, message } => write!(f, "[{code}] {message}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Parse(e) => Some(e),
            DbError::Sema(e) => Some(e),
            DbError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<SemaError> for DbError {
    fn from(e: SemaError) -> Self {
        match e {
            // A data-model failure met while checking (an ADT literal its
            // type rejects) keeps its data-model code.
            SemaError::Model(e) => DbError::Model(e),
            other => DbError::Sema(other),
        }
    }
}

impl From<ModelError> for DbError {
    fn from(e: ModelError) -> Self {
        DbError::Model(e)
    }
}

impl From<exodus_storage::StorageError> for DbError {
    fn from(e: exodus_storage::StorageError) -> Self {
        match e {
            StorageError::IndeterminateCommit { ts, cause } => DbError::Indeterminate(format!(
                "commit at timestamp {ts} reached the log but its fsync failed ({cause}); \
                 recovery will decide its fate"
            )),
            other => DbError::Model(ModelError::Storage(other)),
        }
    }
}

/// Convenience alias.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One constructed value of every variant, for table checks. A new
    /// variant that is not added here fails the count assertion below
    /// (and `code()` itself fails to compile without a code).
    fn one_of_each() -> Vec<DbError> {
        vec![
            DbError::Auth("x".into()),
            DbError::Catalog("x".into()),
            DbError::Txn("x".into()),
            DbError::ReadOnly("x".into()),
            DbError::AdtMismatch("x".into()),
            DbError::Lagging("x".into()),
            DbError::Busy("x".into()),
            DbError::Shed("x".into()),
            DbError::Indeterminate("x".into()),
            DbError::Net("x".into()),
        ]
    }

    #[test]
    fn code_table_is_complete_and_documented() {
        // Codes are unique.
        let mut codes: Vec<u16> = CODE_TABLE.iter().map(|(c, ..)| *c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), CODE_TABLE.len(), "duplicate code in table");
        // Every constructed variant's code appears in the table.
        for e in one_of_each() {
            assert!(
                CODE_TABLE.iter().any(|(c, ..)| *c == e.code()),
                "variant {e:?} has uncoded code {}",
                e.code()
            );
        }
        // Every code row is documented in docs/ERRORS.md.
        let docs = include_str!("../../../docs/ERRORS.md");
        for (code, name, _, retryable) in CODE_TABLE {
            assert!(
                docs.contains(&format!("`{code}`")),
                "docs/ERRORS.md is missing code {code} ({name})"
            );
            let _ = retryable;
        }
    }

    #[test]
    fn retryability_survives_remote_reconstruction() {
        for original in one_of_each() {
            let remote = DbError::Remote {
                code: original.code(),
                message: original.to_string(),
            };
            assert_eq!(remote.code(), original.code());
            assert_eq!(remote.is_retryable(), original.is_retryable());
        }
    }

    #[test]
    fn storage_indeterminate_maps_to_retryable_2003() {
        let e: DbError = StorageError::IndeterminateCommit {
            ts: 7,
            cause: "disk gone".into(),
        }
        .into();
        assert_eq!(e.code(), 2003);
        assert!(e.is_retryable());
        let wrapped = DbError::Model(ModelError::Storage(StorageError::IndeterminateCommit {
            ts: 7,
            cause: "disk gone".into(),
        }));
        assert_eq!(wrapped.code(), 2003);
        assert!(wrapped.is_retryable());
    }
}
