//! Unit tests of `exodus_storage::encoding`, against its public surface.

use exodus_storage::encoding::*;

#[test]
fn writer_reader_round_trip() {
    let mut w = ByteWriter::new();
    w.put_u8(7);
    w.put_u32(0xDEADBEEF);
    w.put_i64(-42);
    w.put_f64(3.25);
    w.put_varint(300);
    w.put_str("exodus");
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.get_u8().unwrap(), 7);
    assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
    assert_eq!(r.get_i64().unwrap(), -42);
    assert_eq!(r.get_f64().unwrap(), 3.25);
    assert_eq!(r.get_varint().unwrap(), 300);
    assert_eq!(r.get_str().unwrap(), "exodus");
    assert_eq!(r.remaining(), 0);
}

#[test]
fn truncated_record_is_an_error() {
    let mut w = ByteWriter::new();
    w.put_u64(1);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes[..4]);
    assert!(r.get_u64().is_err());
}

fn enc_i64(v: i64) -> Vec<u8> {
    let mut k = KeyWriter::new();
    k.put_i64(v);
    k.into_bytes()
}

fn enc_f64(v: f64) -> Vec<u8> {
    let mut k = KeyWriter::new();
    k.put_f64(v);
    k.into_bytes()
}

fn enc_str(v: &str) -> Vec<u8> {
    let mut k = KeyWriter::new();
    k.put_str(v);
    k.into_bytes()
}

#[test]
fn i64_key_order_matches_numeric_order() {
    let vals = [i64::MIN, -1000, -1, 0, 1, 7, 1000, i64::MAX];
    for w in vals.windows(2) {
        assert!(enc_i64(w[0]) < enc_i64(w[1]), "{} !< {}", w[0], w[1]);
    }
    assert_eq!(key_decode_i64(&enc_i64(-99)).unwrap().0, -99);
}

#[test]
fn f64_key_order_matches_numeric_order() {
    let vals = [
        f64::NEG_INFINITY,
        -1e10,
        -1.5,
        -0.0,
        0.0,
        1.5,
        1e10,
        f64::INFINITY,
    ];
    for w in vals.windows(2) {
        let (a, b) = (enc_f64(w[0]), enc_f64(w[1]));
        assert!(a <= b, "{} !<= {}", w[0], w[1]);
    }
    assert_eq!(key_decode_f64(&enc_f64(-2.5)).unwrap().0, -2.5);
    // -0.0 and 0.0 encode adjacently but distinctly ordered is fine;
    // decode must still round-trip sign-correctly for nonzero values.
    assert_eq!(key_decode_f64(&enc_f64(1e300)).unwrap().0, 1e300);
}

#[test]
fn string_key_order_and_prefix_freedom() {
    assert!(enc_str("a") < enc_str("ab"));
    assert!(enc_str("ab") < enc_str("b"));
    assert!(enc_str("") < enc_str("a"));
    // Embedded NULs survive.
    let with_nul = "a\0b";
    let encoded = enc_str(with_nul);
    let (s, rest) = key_decode_str(&encoded).unwrap();
    assert_eq!(s, with_nul);
    assert!(rest.is_empty());
}

#[test]
fn composite_key_orders_lexicographically() {
    let k = |s: &str, n: i64| {
        let mut w = KeyWriter::new();
        w.put_str(s);
        w.put_i64(n);
        w.into_bytes()
    };
    assert!(k("ann", 5) < k("ann", 6));
    assert!(k("ann", 99) < k("bob", 0));
}

proptest::proptest! {
    #[test]
    fn prop_i64_keys_order(a: i64, b: i64) {
        proptest::prop_assert_eq!(a.cmp(&b), enc_i64(a).cmp(&enc_i64(b)));
    }

    #[test]
    fn prop_str_keys_order(a: String, b: String) {
        proptest::prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), enc_str(&a).cmp(&enc_str(&b)));
    }

    #[test]
    fn prop_varint_round_trip(v: u64) {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        proptest::prop_assert_eq!(r.get_varint().unwrap(), v);
    }

    #[test]
    fn prop_f64_keys_order(a: f64, b: f64) {
        // proptest generates non-NaN by default for f64? It can generate
        // NaN via any(); the default strategy excludes NaN and infinities
        // only when using finite ranges — guard explicitly.
        proptest::prop_assume!(!a.is_nan() && !b.is_nan());
        // -0.0 and +0.0 compare equal numerically but encode distinctly.
        proptest::prop_assume!(!(a == 0.0 && b == 0.0));
        let ord = a.partial_cmp(&b).unwrap();
        proptest::prop_assert_eq!(ord, enc_f64(a).cmp(&enc_f64(b)));
    }
}
