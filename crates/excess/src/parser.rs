//! Recursive-descent / Pratt parser for EXCESS.
//!
//! Construct a [`Parser`] with an [`OperatorTable`] — the table carries any
//! ADT-registered operators, which parse with their registered precedence
//! and associativity.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::lexer::lex;
use crate::ops::{OpAssoc, OperatorTable};
use crate::token::{Kw, Tok, Token};

/// Binding powers of keyword operators.
const P_OR: u8 = 10;
const P_AND: u8 = 20;
const P_NOT: u8 = 25;
const P_CMP: u8 = 30;
const P_SET: u8 = 35;
const P_NEG: u8 = 55;

/// Names parsed as aggregate functions even without over/by/where clauses.
const AGG_NAMES: &[&str] = &["count", "sum", "avg", "min", "max"];

/// The EXCESS parser.
pub struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    ops: &'a OperatorTable,
    /// In a template parse, the slot the next literal takes.
    next_hole: Option<usize>,
}

/// Parse a single statement.
pub fn parse_statement(src: &str, ops: &OperatorTable) -> ParseResult<Stmt> {
    Parser::new(src, ops)?.only_statement()
}

/// Parse a single statement from the tokens [`crate::lexer::lex`] made of
/// `src` as a template: each integer, float and string literal becomes an
/// [`Expr::Hole`] whose slot is its position among the literal tokens.
/// Fails when a literal token is not an expression.
pub fn parse_template(src: &str, toks: Vec<Token>, ops: &OperatorTable) -> ParseResult<Stmt> {
    let literals = toks.iter().filter(|t| is_literal(&t.tok)).count();
    let mut p = Parser::from_tokens(src, toks, ops);
    p.next_hole = Some(0);
    let stmt = p.only_statement()?;
    if p.next_hole != Some(literals) {
        return p.err("a literal that is not an expression cannot be a hole");
    }
    Ok(stmt)
}

/// Whether a token is a literal a statement template makes a hole of.
fn is_literal(tok: &Tok) -> bool {
    matches!(tok, Tok::Int(_) | Tok::Float(_) | Tok::Str(_))
}

/// Parse a whole program: statements separated by optional `;`.
pub fn parse_program(src: &str, ops: &OperatorTable) -> ParseResult<Vec<Stmt>> {
    parse_tokens(src, lex(src, ops)?, ops)
}

/// [`parse_program`] over the tokens [`crate::lexer::lex`] made of `src`.
pub fn parse_tokens(src: &str, toks: Vec<Token>, ops: &OperatorTable) -> ParseResult<Vec<Stmt>> {
    let mut p = Parser::from_tokens(src, toks, ops);
    let mut stmts = Vec::new();
    loop {
        p.skip_semis();
        if p.at_eof() {
            return Ok(stmts);
        }
        stmts.push(p.statement()?);
    }
}

impl<'a> Parser<'a> {
    /// Lex `src` and prepare to parse.
    pub fn new(src: &'a str, ops: &'a OperatorTable) -> ParseResult<Parser<'a>> {
        Ok(Self::from_tokens(src, lex(src, ops)?, ops))
    }

    fn from_tokens(src: &'a str, toks: Vec<Token>, ops: &'a OperatorTable) -> Parser<'a> {
        Parser {
            src,
            toks,
            pos: 0,
            ops,
            next_hole: None,
        }
    }

    /// One statement, then (after any `;`) the end of input.
    fn only_statement(&mut self) -> ParseResult<Stmt> {
        let stmt = self.statement()?;
        self.skip_semis();
        self.expect_eof()?;
        Ok(stmt)
    }

    /// A literal atom: a hole in a template parse.
    fn literal(&mut self, lit: Lit) -> Expr {
        self.bump();
        match &mut self.next_hole {
            Some(slot) => {
                *slot += 1;
                Expr::Hole(*slot - 1, lit)
            }
            None => Expr::Lit(lit),
        }
    }

    // -- token plumbing ----------------------------------------------------

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> ParseResult<T> {
        Err(ParseError::at(self.src, self.offset(), msg))
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn expect_eof(&self) -> ParseResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            self.err(format!("expected end of input, found {}", self.peek()))
        }
    }

    fn skip_semis(&mut self) {
        while matches!(self.peek(), Tok::Sym(s) if s == ";") {
            self.bump();
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if matches!(self.peek(), Tok::Kw(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> ParseResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected '{}', found {}", kw.as_str(), self.peek()))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(t) if t == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> ParseResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            self.err(format!("expected '{s}', found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    fn integer(&mut self) -> ParseResult<i64> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(i)
            }
            other => self.err(format!("expected an integer, found {other}")),
        }
    }

    // -- statements ----------------------------------------------------------

    /// Parse one statement.
    pub fn statement(&mut self) -> ParseResult<Stmt> {
        match self.peek().clone() {
            Tok::Kw(Kw::Define) => self.define_stmt(),
            Tok::Kw(Kw::Create) => self.create_stmt(),
            Tok::Kw(Kw::Destroy) => {
                self.bump();
                Ok(Stmt::Destroy {
                    name: self.ident()?,
                })
            }
            Tok::Kw(Kw::Drop) => self.drop_stmt(),
            Tok::Kw(Kw::Add) => {
                self.bump();
                self.expect_kw(Kw::User)?;
                let user = self.ident()?;
                self.expect_kw(Kw::To)?;
                self.expect_kw(Kw::Group)?;
                let group = self.ident()?;
                Ok(Stmt::AddToGroup { user, group })
            }
            Tok::Kw(Kw::Range) => self.range_stmt(),
            Tok::Kw(Kw::Retrieve) => self.retrieve_stmt(),
            Tok::Kw(Kw::Append) => self.append_stmt(),
            Tok::Kw(Kw::Delete) => {
                self.bump();
                let target = self.path_expr()?;
                let qual = self.optional_where()?;
                Ok(Stmt::Delete { target, qual })
            }
            Tok::Kw(Kw::Replace) => {
                self.bump();
                let target = self.path_expr()?;
                self.expect_sym("(")?;
                let assignments = self.assignments()?;
                self.expect_sym(")")?;
                let qual = self.optional_where()?;
                Ok(Stmt::Replace {
                    target,
                    assignments,
                    qual,
                })
            }
            Tok::Kw(Kw::Execute) => {
                self.bump();
                let proc = self.ident()?;
                self.expect_sym("(")?;
                let args = self.expr_list(")")?;
                self.expect_sym(")")?;
                let qual = self.optional_where()?;
                Ok(Stmt::Execute { proc, args, qual })
            }
            Tok::Kw(Kw::Grant) => self.grant_revoke(true),
            Tok::Kw(Kw::Revoke) => self.grant_revoke(false),
            Tok::Kw(Kw::Explain) => {
                self.bump();
                let analyze = self.eat_kw(Kw::Analyze);
                if matches!(self.peek(), Tok::Kw(Kw::Explain)) {
                    return self.err("explain cannot be nested");
                }
                if matches!(self.peek(), Tok::Kw(Kw::Observe)) {
                    return self.err("explain cannot wrap observe");
                }
                if let Tok::Kw(k @ (Kw::Begin | Kw::Commit | Kw::Abort)) = self.peek() {
                    return self.err(format!(
                        "explain cannot wrap '{}': transaction control has no plan",
                        k.as_str()
                    ));
                }
                let stmt = Box::new(self.statement()?);
                Ok(Stmt::Explain { analyze, stmt })
            }
            Tok::Kw(Kw::Observe) => {
                self.bump();
                if matches!(self.peek(), Tok::Kw(Kw::Observe)) {
                    return self.err("observe cannot be nested");
                }
                if matches!(self.peek(), Tok::Kw(Kw::Explain)) {
                    return self.err("observe cannot wrap explain");
                }
                if let Tok::Kw(k @ (Kw::Begin | Kw::Commit | Kw::Abort)) = self.peek() {
                    return self.err(format!(
                        "observe cannot wrap '{}': transaction control is not a \
                         metered statement",
                        k.as_str()
                    ));
                }
                let stmt = Box::new(self.statement()?);
                Ok(Stmt::Observe { stmt })
            }
            Tok::Kw(Kw::Analyze) => {
                self.bump();
                let collection = self.ident()?;
                Ok(Stmt::Analyze { collection })
            }
            Tok::Kw(Kw::Begin) => {
                self.bump();
                Ok(Stmt::Begin)
            }
            Tok::Kw(Kw::Commit) => {
                self.bump();
                Ok(Stmt::Commit)
            }
            Tok::Kw(Kw::Abort) => {
                self.bump();
                Ok(Stmt::Abort)
            }
            other => self.err(format!("expected a statement, found {other}")),
        }
    }

    fn define_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Define)?;
        match self.peek().clone() {
            Tok::Kw(Kw::Type) => {
                self.bump();
                let name = self.ident()?;
                let mut inherits = Vec::new();
                if self.eat_kw(Kw::Inherits) {
                    loop {
                        inherits.push(self.inherit_clause()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym("(")?;
                let attrs = self.attr_decls()?;
                self.expect_sym(")")?;
                Ok(Stmt::DefineType {
                    name,
                    inherits,
                    attrs,
                })
            }
            Tok::Kw(Kw::Function) => {
                self.bump();
                let name = self.ident()?;
                self.expect_sym("(")?;
                let params = self.params()?;
                self.expect_sym(")")?;
                self.expect_kw(Kw::Returns)?;
                let returns = self.qual_type()?;
                self.expect_kw(Kw::As)?;
                let body = self.retrieve_stmt()?;
                Ok(Stmt::DefineFunction {
                    name,
                    params,
                    returns,
                    body: Box::new(body),
                })
            }
            Tok::Kw(Kw::Procedure) => {
                self.bump();
                let name = self.ident()?;
                self.expect_sym("(")?;
                let params = self.params()?;
                self.expect_sym(")")?;
                self.expect_kw(Kw::As)?;
                let mut body = vec![self.statement()?];
                while self.eat_sym(";") {
                    if matches!(self.peek(), Tok::Kw(Kw::End)) {
                        break;
                    }
                    body.push(self.statement()?);
                }
                self.expect_kw(Kw::End)?;
                Ok(Stmt::DefineProcedure { name, params, body })
            }
            Tok::Kw(Kw::Index) | Tok::Kw(Kw::Unique) => {
                let unique = self.eat_kw(Kw::Unique);
                self.expect_kw(Kw::Index)?;
                let name = self.ident()?;
                self.expect_kw(Kw::On)?;
                let collection = self.ident()?;
                self.expect_sym("(")?;
                let attr = self.ident()?;
                self.expect_sym(")")?;
                Ok(Stmt::DefineIndex {
                    name,
                    collection,
                    attr,
                    unique,
                })
            }
            other => self.err(format!(
                "expected 'type', 'function', 'procedure' or 'index' after 'define', found {other}"
            )),
        }
    }

    fn inherit_clause(&mut self) -> ParseResult<InheritClause> {
        let base = self.ident()?;
        let mut renames = Vec::new();
        if self.eat_kw(Kw::Rename) {
            loop {
                let old = self.ident()?;
                self.expect_kw(Kw::To)?;
                let new = self.ident()?;
                renames.push((old, new));
                // `rename a to b rename c to d` or `rename a to b, Base2`:
                // a comma continues the inherits list, so renames chain via
                // the `rename` keyword.
                if !self.eat_kw(Kw::Rename) {
                    break;
                }
            }
        }
        Ok(InheritClause { base, renames })
    }

    fn attr_decls(&mut self) -> ParseResult<Vec<AttrDecl>> {
        let mut attrs = Vec::new();
        if matches!(self.peek(), Tok::Sym(s) if s == ")") {
            return Ok(attrs);
        }
        loop {
            let name = self.ident()?;
            self.expect_sym(":")?;
            let qty = self.qual_type()?;
            attrs.push(AttrDecl { name, qty });
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(attrs)
    }

    fn params(&mut self) -> ParseResult<Vec<Param>> {
        let mut params = Vec::new();
        if matches!(self.peek(), Tok::Sym(s) if s == ")") {
            return Ok(params);
        }
        loop {
            let name = self.ident()?;
            self.expect_sym(":")?;
            let qty = self.qual_type()?;
            params.push(Param { name, qty });
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(params)
    }

    /// Parse `[own [ref] | ref] <type>`.
    fn qual_type(&mut self) -> ParseResult<QualTypeExpr> {
        let mode = if self.eat_kw(Kw::Own) {
            if self.eat_kw(Kw::Ref) {
                Mode::OwnRef
            } else {
                Mode::Own
            }
        } else if self.eat_kw(Kw::Ref) {
            Mode::Ref
        } else {
            Mode::Own
        };
        Ok(QualTypeExpr {
            mode,
            ty: self.type_expr()?,
        })
    }

    fn type_expr(&mut self) -> ParseResult<TypeExpr> {
        match self.peek().clone() {
            Tok::Ident(_) => Ok(TypeExpr::Named(self.ident()?)),
            Tok::Kw(Kw::Char) => {
                self.bump();
                self.expect_sym("(")?;
                let n = self.integer()?;
                self.expect_sym(")")?;
                if n <= 0 {
                    return self.err("char length must be positive");
                }
                Ok(TypeExpr::Char(n as usize))
            }
            Tok::Kw(Kw::Enum) => {
                self.bump();
                self.expect_sym("(")?;
                let mut syms = vec![self.ident()?];
                while self.eat_sym(",") {
                    syms.push(self.ident()?);
                }
                self.expect_sym(")")?;
                Ok(TypeExpr::Enum(syms))
            }
            Tok::Sym(s) if s == "{" => {
                self.bump();
                let elem = self.qual_type()?;
                self.expect_sym("}")?;
                Ok(TypeExpr::Set(Box::new(elem)))
            }
            Tok::Sym(s) if s == "[" => {
                self.bump();
                let len = if matches!(self.peek(), Tok::Int(_)) {
                    let n = self.integer()?;
                    if n <= 0 {
                        return self.err("array length must be positive");
                    }
                    Some(n as usize)
                } else {
                    None
                };
                self.expect_sym("]")?;
                let elem = self.qual_type()?;
                Ok(TypeExpr::Array(len, Box::new(elem)))
            }
            Tok::Sym(s) if s == "(" => {
                self.bump();
                let attrs = self.attr_decls()?;
                self.expect_sym(")")?;
                Ok(TypeExpr::Tuple(attrs))
            }
            other => self.err(format!("expected a type, found {other}")),
        }
    }

    fn create_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Create)?;
        if self.eat_kw(Kw::User) {
            return Ok(Stmt::CreateUser {
                name: self.ident()?,
            });
        }
        if self.eat_kw(Kw::Group) {
            return Ok(Stmt::CreateGroup {
                name: self.ident()?,
            });
        }
        let qty = self.qual_type()?;
        let name = self.ident()?;
        let key = if matches!(self.peek(), Tok::Ident(k) if k == "key") {
            self.bump();
            self.expect_sym("(")?;
            let attr = self.ident()?;
            self.expect_sym(")")?;
            Some(attr)
        } else {
            None
        };
        Ok(Stmt::Create { qty, name, key })
    }

    fn drop_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Drop)?;
        if self.eat_kw(Kw::Type) {
            return Ok(Stmt::DropType {
                name: self.ident()?,
            });
        }
        if self.eat_kw(Kw::Function) {
            return Ok(Stmt::DropFunction {
                name: self.ident()?,
            });
        }
        if self.eat_kw(Kw::Procedure) {
            return Ok(Stmt::DropProcedure {
                name: self.ident()?,
            });
        }
        self.err("expected 'type', 'function' or 'procedure' after 'drop'")
    }

    fn range_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Range)?;
        self.expect_kw(Kw::Of)?;
        let var = self.ident()?;
        self.expect_kw(Kw::Is)?;
        let universal = self.eat_kw(Kw::All);
        let path = self.path_expr()?;
        Ok(Stmt::RangeOf {
            var,
            universal,
            path,
        })
    }

    fn retrieve_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Retrieve)?;
        let into = if self.eat_kw(Kw::Into) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect_sym("(")?;
        let mut targets = Vec::new();
        loop {
            // `name = expr` names the output column; disambiguate from an
            // expression starting with `ident =` (comparison) by checking
            // what follows: a name is followed by `=` and the overall
            // target ends at `,` or `)` — we accept the naming reading,
            // matching QUEL target-list convention.
            let name = if matches!(self.peek(), Tok::Ident(_))
                && matches!(self.peek2(), Tok::Sym(s) if s == "=")
            {
                let n = self.ident()?;
                self.bump(); // '='
                Some(n)
            } else {
                None
            };
            let expr = self.expr()?;
            targets.push(Target { name, expr });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        let mut from = Vec::new();
        if self.eat_kw(Kw::From) {
            loop {
                let var = self.ident()?;
                self.expect_kw(Kw::In)?;
                let path = self.path_expr()?;
                from.push(FromBinding { var, path });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let qual = self.optional_where()?;
        let order_by = if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            let e = self.expr()?;
            let asc = if self.eat_kw(Kw::Desc) {
                false
            } else {
                self.eat_kw(Kw::Asc);
                true
            };
            Some((e, asc))
        } else {
            None
        };
        Ok(Stmt::Retrieve {
            into,
            targets,
            from,
            qual,
            order_by,
        })
    }

    fn append_stmt(&mut self) -> ParseResult<Stmt> {
        self.expect_kw(Kw::Append)?;
        self.eat_kw(Kw::To);
        let target = self.path_expr()?;
        // `(a = e, ...)` is an assignments form; anything else is a value
        // expression.
        if matches!(self.peek(), Tok::Sym(s) if s == "(")
            && matches!(self.peek2(), Tok::Ident(_))
            && matches!(&self.toks[(self.pos + 2).min(self.toks.len() - 1)].tok,
                        Tok::Sym(s) if s == "=")
        {
            self.bump(); // '('
            let assignments = self.assignments()?;
            self.expect_sym(")")?;
            let qual = self.optional_where()?;
            Ok(Stmt::Append {
                target,
                value: AppendValue::Assignments(assignments),
                qual,
            })
        } else {
            let value = self.expr()?;
            let qual = self.optional_where()?;
            Ok(Stmt::Append {
                target,
                value: AppendValue::Expr(value),
                qual,
            })
        }
    }

    fn assignments(&mut self) -> ParseResult<Vec<(String, Expr)>> {
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect_sym("=")?;
            let e = self.expr()?;
            out.push((name, e));
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(out)
    }

    fn grant_revoke(&mut self, grant: bool) -> ParseResult<Stmt> {
        self.bump(); // grant/revoke
        let mut privileges = vec![self.privilege()?];
        while self.eat_sym(",") {
            privileges.push(self.privilege()?);
        }
        self.expect_kw(Kw::On)?;
        let object = self.ident()?;
        if grant {
            self.expect_kw(Kw::To)?;
        } else {
            self.expect_kw(Kw::From)?;
        }
        let mut grantees = vec![self.ident()?];
        while self.eat_sym(",") {
            grantees.push(self.ident()?);
        }
        if grant {
            Ok(Stmt::Grant {
                privileges,
                object,
                grantees,
            })
        } else {
            Ok(Stmt::Revoke {
                privileges,
                object,
                grantees,
            })
        }
    }

    fn privilege(&mut self) -> ParseResult<Privilege> {
        let p = match self.peek().clone() {
            Tok::Ident(s) if s == "read" => Privilege::Read,
            Tok::Kw(Kw::Append) => Privilege::Append,
            Tok::Kw(Kw::Delete) => Privilege::Delete,
            Tok::Kw(Kw::Replace) => Privilege::Replace,
            Tok::Kw(Kw::Execute) => Privilege::Execute,
            Tok::Kw(Kw::All) => Privilege::All,
            other => return self.err(format!("expected a privilege, found {other}")),
        };
        self.bump();
        Ok(p)
    }

    fn optional_where(&mut self) -> ParseResult<Option<Expr>> {
        if self.eat_kw(Kw::Where) {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // -- expressions ---------------------------------------------------------

    /// Parse a path expression: `Name(.attr | [index])*` — the restricted
    /// form used by range statements and update targets.
    pub fn path_expr(&mut self) -> ParseResult<Expr> {
        let mut e = Expr::Var(self.ident()?);
        loop {
            if self.eat_sym(".") {
                e = Expr::Path(Box::new(e), self.ident()?);
            } else if self.eat_sym("[") {
                let idx = self.expr()?;
                self.expect_sym("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    /// Parse a full expression.
    pub fn expr(&mut self) -> ParseResult<Expr> {
        self.expr_bp(0)
    }

    fn keyword_op(&self) -> Option<(BinOp, u8)> {
        match self.peek() {
            Tok::Kw(Kw::Or) => Some((BinOp::Or, P_OR)),
            Tok::Kw(Kw::And) => Some((BinOp::And, P_AND)),
            Tok::Kw(Kw::Is) => Some((BinOp::Is, P_CMP)),
            Tok::Kw(Kw::Isnot) => Some((BinOp::IsNot, P_CMP)),
            Tok::Kw(Kw::In) => Some((BinOp::In, P_CMP)),
            Tok::Kw(Kw::Contains) => Some((BinOp::Contains, P_CMP)),
            Tok::Kw(Kw::Union) => Some((BinOp::Union, P_SET)),
            Tok::Kw(Kw::Intersect) => Some((BinOp::Intersect, P_SET)),
            Tok::Kw(Kw::Minus) => Some((BinOp::SetMinus, P_SET)),
            _ => None,
        }
    }

    fn builtin_sym_op(sym: &str) -> Option<BinOp> {
        Some(match sym {
            "=" => BinOp::Eq,
            "!=" | "<>" => BinOp::Ne,
            "<" => BinOp::Lt,
            "<=" => BinOp::Le,
            ">" => BinOp::Gt,
            ">=" => BinOp::Ge,
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Mod,
            _ => return None,
        })
    }

    fn expr_bp(&mut self, min_bp: u8) -> ParseResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            // Keyword operators.
            if let Some((op, prec)) = self.keyword_op() {
                if prec < min_bp {
                    break;
                }
                self.bump();
                let rhs = self.expr_bp(prec + 1)?;
                lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
                continue;
            }
            // Symbol operators (built-in or registered).
            let sym = match self.peek() {
                Tok::Sym(s) => s.clone(),
                _ => break,
            };
            let Some(info) = self.ops.infix(&sym) else {
                break;
            };
            if info.precedence < min_bp {
                break;
            }
            self.bump();
            let next_bp = match info.assoc {
                OpAssoc::Left => info.precedence + 1,
                OpAssoc::Right => info.precedence,
            };
            let rhs = self.expr_bp(next_bp)?;
            lhs = match Self::builtin_sym_op(&sym) {
                Some(op) => Expr::Binary(op, Box::new(lhs), Box::new(rhs)),
                None => Expr::UserOp(sym, vec![lhs, rhs]),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> ParseResult<Expr> {
        if self.eat_kw(Kw::Not) {
            let e = self.expr_bp(P_NOT + 1)?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(e)));
        }
        if matches!(self.peek(), Tok::Sym(s) if s == "-") {
            self.bump();
            let e = self.expr_bp(P_NEG)?;
            return Ok(Expr::Unary(UnOp::Neg, Box::new(e)));
        }
        // Registered prefix operators.
        if let Tok::Sym(s) = self.peek().clone() {
            if let Some(info) = self.ops.infix(&s) {
                if info.prefix && Self::builtin_sym_op(&s).is_none() {
                    self.bump();
                    let e = self.expr_bp(P_NEG)?;
                    return Ok(Expr::UserOp(s, vec![e]));
                }
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> ParseResult<Expr> {
        let mut e = self.atom()?;
        loop {
            if self.eat_sym(".") {
                let name = self.ident()?;
                if self.eat_sym("(") {
                    // Method syntax: x.f(args).
                    let args = self.expr_list(")")?;
                    self.expect_sym(")")?;
                    e = Expr::Call {
                        recv: Some(Box::new(e)),
                        name,
                        args,
                    };
                } else {
                    e = Expr::Path(Box::new(e), name);
                }
            } else if self.eat_sym("[") {
                let idx = self.expr()?;
                self.expect_sym("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    fn expr_list(&mut self, close: &str) -> ParseResult<Vec<Expr>> {
        let mut out = Vec::new();
        if matches!(self.peek(), Tok::Sym(s) if s == close) {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if !self.eat_sym(",") {
                return Ok(out);
            }
        }
    }

    fn atom(&mut self) -> ParseResult<Expr> {
        match self.peek().clone() {
            Tok::Int(i) => Ok(self.literal(Lit::Int(i))),
            Tok::Float(f) => Ok(self.literal(Lit::Float(f))),
            Tok::Str(s) => Ok(self.literal(Lit::Str(s))),
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Expr::Lit(Lit::Bool(true)))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Expr::Lit(Lit::Bool(false)))
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                Ok(Expr::Lit(Lit::Null))
            }
            Tok::Kw(Kw::Unique) => {
                // `unique(expr over ... )` — a set-returning aggregate.
                self.bump();
                self.expect_sym("(")?;
                let agg = self.aggregate_body("unique".into())?;
                Ok(Expr::Agg(agg))
            }
            Tok::Sym(s) if s == "(" => {
                self.bump();
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym(s) if s == "{" => {
                self.bump();
                let items = self.expr_list("}")?;
                self.expect_sym("}")?;
                Ok(Expr::SetLit(items))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat_sym("(") {
                    // Aggregate or function call.
                    if AGG_NAMES.contains(&name.as_str()) {
                        let agg = self.aggregate_body(name)?;
                        return Ok(Expr::Agg(agg));
                    }
                    let args = self.expr_list(")")?;
                    // A call can still be an aggregate-form user set
                    // function if over/by/where follow the single arg.
                    if args.len() == 1
                        && matches!(
                            self.peek(),
                            Tok::Kw(Kw::Over) | Tok::Kw(Kw::By) | Tok::Kw(Kw::Where)
                        )
                    {
                        let agg = self.aggregate_tail(name, args.into_iter().next())?;
                        return Ok(Expr::Agg(agg));
                    }
                    self.expect_sym(")")?;
                    Ok(Expr::Call {
                        recv: None,
                        name,
                        args,
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    /// Parse `expr [over ...] [by ...] [where ...] )` after `agg(`.
    fn aggregate_body(&mut self, func: String) -> ParseResult<Aggregate> {
        let arg = self.expr()?;
        self.aggregate_tail(func, Some(arg))
    }

    fn aggregate_tail(&mut self, func: String, arg: Option<Expr>) -> ParseResult<Aggregate> {
        let mut over = Vec::new();
        if self.eat_kw(Kw::Over) {
            over.push(self.ident()?);
            while self.eat_sym(",") {
                over.push(self.ident()?);
            }
        }
        let mut by = Vec::new();
        if self.eat_kw(Kw::By) {
            by.push(self.expr()?);
            while self.eat_sym(",") {
                by.push(self.expr()?);
            }
        }
        let qual = if self.eat_kw(Kw::Where) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_sym(")")?;
        Ok(Aggregate {
            func,
            arg: arg.map(Box::new),
            over,
            by,
            qual,
        })
    }
}
