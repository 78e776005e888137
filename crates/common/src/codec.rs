//! Canonical binary codec.
//!
//! Blocks, transactions, WAL records and checkpoint write-sets are encoded
//! with this hand-written, length-prefixed, big-endian format. The encoding
//! is *canonical*: a given value has exactly one encoding, so hashing the
//! encoding yields the same digest on every replica — the foundation for
//! the paper's checkpointing phase (§3.3.4), block hash chain and signed
//! transaction envelopes.

use crate::error::{Error, Result};
use crate::value::Value;

/// Incremental encoder over a growable buffer — or, in counting mode
/// ([`Encoder::counting`]), over no buffer at all: every `put_*` only
/// advances the length, so measuring a message allocates nothing and a
/// large `put_bytes` payload costs O(1). [`Encode::encoded_len`] is the
/// one size any caller should charge for a message.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// `Some(n)` in counting mode: `n` bytes measured, none stored.
    counted: Option<usize>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Encoder {
        Encoder::with_capacity(256)
    }

    /// New encoder with a capacity hint.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
            counted: None,
        }
    }

    /// New encoder in counting mode: it measures what it is fed and
    /// stores nothing ([`Encoder::finish`] returns an empty buffer).
    pub fn counting() -> Encoder {
        Encoder {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far (none in counting mode). With
    /// [`Encoder::clear`], lets a long encoding be consumed in pieces
    /// through one reused buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the bytes encoded so far, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        if let Some(n) = &mut self.counted {
            *n = 0;
        }
    }

    /// Encoded length so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Append a big-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.put(&v.to_be_bytes());
    }

    /// Append an f64 via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a fixed-width 32-byte digest (no length prefix).
    pub fn put_digest(&mut self, v: &[u8; 32]) {
        self.put(v);
    }

    /// Append a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(3);
                self.put_f64(*f);
            }
            Value::Text(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Value::Bytes(b) => {
                self.put_u8(5);
                self.put_bytes(b);
            }
            Value::Timestamp(t) => {
                self.put_u8(6);
                self.put_i64(*t);
            }
        }
    }

    /// Append a row (length-prefixed sequence of values).
    pub fn put_row(&mut self, row: &[Value]) {
        self.put_u32(row.len() as u32);
        for v in row {
            self.put_value(v);
        }
    }
}

/// Decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.len() < n {
            return Err(Error::Codec(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a big-endian i64.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an f64 from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Codec(format!("invalid boolean byte {b:#x}"))),
        }
    }

    /// Read length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| Error::Codec("invalid utf-8 in string".into()))
    }

    /// Read a fixed 32-byte digest.
    pub fn get_digest(&mut self) -> Result<[u8; 32]> {
        Ok(self.take(32)?.try_into().expect("32 bytes"))
    }

    /// Read a tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.get_bool()?)),
            2 => Ok(Value::Int(self.get_i64()?)),
            3 => Ok(Value::Float(self.get_f64()?)),
            4 => Ok(Value::Text(self.get_str()?)),
            5 => Ok(Value::Bytes(self.get_bytes()?)),
            6 => Ok(Value::Timestamp(self.get_i64()?)),
            t => Err(Error::Codec(format!("invalid value tag {t:#x}"))),
        }
    }

    /// Read a `u32` element count, rejecting it unless the input still
    /// holds `min_size` bytes per claimed element (the least one `what`
    /// can encode to) — so a corrupt or hostile count never makes the
    /// caller reserve memory the input cannot back.
    pub fn get_count(&mut self, min_size: usize, what: &str) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(Error::Codec(format!(
                "{what} count {n} exceeds remaining input"
            )));
        }
        Ok(n)
    }

    /// Read a row.
    pub fn get_row(&mut self) -> Result<Vec<Value>> {
        // Each value takes at least its tag byte.
        let n = self.get_count(1, "row value")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_value()?);
        }
        Ok(out)
    }
}

/// Trait for types with a canonical binary encoding.
pub trait Encode {
    /// Append the canonical encoding of `self` to the encoder.
    fn encode(&self, enc: &mut Encoder);

    /// Encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Exactly `encode_to_vec().len()`, without building the buffer —
    /// the size the simulated network charges for this value.
    fn encoded_len(&self) -> usize {
        let mut enc = Encoder::counting();
        self.encode(&mut enc);
        enc.len()
    }
}

/// Trait for types decodable from the canonical encoding.
pub trait Decode: Sized {
    /// Decode one value, advancing the decoder.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Decode from a complete buffer, requiring full consumption.
    fn decode_all(buf: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after decode",
                dec.remaining()
            )));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut enc = Encoder::new();
        enc.put_value(&v);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = dec.get_value().unwrap();
        assert_eq!(v, back);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Float(3.25));
        roundtrip_value(Value::Text("héllo".into()));
        roundtrip_value(Value::Bytes(vec![0, 255, 7]));
        roundtrip_value(Value::Timestamp(1_700_000_000_000));
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![Value::Int(1), Value::Text("x".into()), Value::Null];
        let mut enc = Encoder::new();
        enc.put_row(&row);
        let bytes = enc.finish();
        let back = Decoder::new(&bytes).get_row().unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn truncated_input_is_error_not_panic() {
        let mut enc = Encoder::new();
        enc.put_str("hello world");
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(dec.get_str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_tag_is_error() {
        let mut dec = Decoder::new(&[9u8]);
        assert!(dec.get_value().is_err());
        let mut dec = Decoder::new(&[7u8]);
        assert!(dec.get_bool().is_err());
    }

    #[test]
    fn oversized_row_length_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.finish();
        assert!(Decoder::new(&bytes).get_row().is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let row = vec![Value::Float(1.5), Value::Text("abc".into())];
        let mut a = Encoder::new();
        a.put_row(&row);
        let mut b = Encoder::new();
        b.put_row(&row);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn counting_mode_measures_without_storing() {
        struct Sample;
        impl Encode for Sample {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_u8(1);
                enc.put_bool(true);
                enc.put_u32(2);
                enc.put_u64(3);
                enc.put_f64(4.5);
                enc.put_str("héllo");
                enc.put_bytes(&[0u8; 1000]);
                enc.put_digest(&[9u8; 32]);
                enc.put_row(&[Value::Null, Value::Int(7), Value::Text("x".into())]);
            }
        }
        assert_eq!(Sample.encoded_len(), Sample.encode_to_vec().len());
        let mut enc = Encoder::counting();
        Sample.encode(&mut enc);
        assert_eq!(enc.finish().capacity(), 0, "counting stores nothing");
    }

    #[test]
    fn counts_are_bounded_by_remaining_input() {
        let mut enc = Encoder::new();
        enc.put_u32(3);
        enc.put_u64(0);
        let bytes = enc.finish();
        // 3 elements of ≥ 2 bytes fit in the 8 bytes that follow, …
        assert_eq!(Decoder::new(&bytes).get_count(2, "item").unwrap(), 3);
        // … 3 elements of ≥ 3 bytes do not.
        let err = Decoder::new(&bytes).get_count(3, "item").unwrap_err();
        assert!(err
            .to_string()
            .contains("item count 3 exceeds remaining input"));
    }

    #[test]
    fn digest_roundtrip() {
        let d = [7u8; 32];
        let mut enc = Encoder::new();
        enc.put_digest(&d);
        let got = Decoder::new(&enc.finish()).get_digest().unwrap();
        assert_eq!(d, got);
    }
}
