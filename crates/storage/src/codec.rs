//! The binary value codec.
//!
//! JSON was the serialization tax on every checkpoint, durable restart,
//! and oversized `DumpUniverse` frame (B9 measured the 40×150 universe's
//! JSON roundtrip at ~71 ms). This module replaces it with a
//! length-prefixed, varint-based, tagged binary encoding of the object
//! model, carried inside one CRC-32C-checksummed container:
//!
//! ```text
//! container: "IDLBVAL3" | crc32c(body):u32le | body
//! body:      version:varint | name table | value
//! ```
//!
//! The page file stores its rows and blobs in it ([`crate::engine`]), and
//! the server's negotiated binary `DumpUniverse` payload is one.
//!
//! # Value encoding
//!
//! Every value starts with a tag byte:
//!
//! | tag | value | payload |
//! |-----|-------|---------|
//! | 0   | null  | — |
//! | 1   | false | — |
//! | 2   | true  | — |
//! | 3   | int   | zigzag varint |
//! | 4   | float | 8 bytes LE of the canonical [`F64`] bit pattern |
//! | 5   | string| varint name-table index |
//! | 6   | date  | zigzag varint epoch days |
//! | 7   | tuple | varint arity, then per attribute: varint name index + value |
//! | 8   | set   | varint cardinality, then members in their total order |
//!
//! Strings — attribute names, relation names, *and* string atoms, which in
//! this data model are all interchangeable [`Name`]s (data in one database
//! is metadata in another, §2 of the paper) — are interned into a per-blob
//! name table written ahead of the tree, so a name repeated across 6 000
//! rows costs one or two varint bytes per occurrence instead of its UTF-8
//! length plus quotes.
//!
//! # Integrity and fail-closed decoding
//!
//! The body CRC makes corruption detection unconditional: any byte flip in
//! the body (or the CRC field itself) fails the checksum, a flip in the
//! magic fails the magic check, and the structural decoder additionally
//! bounds-checks every read, caps recursion depth, and rejects duplicate
//! tuple attributes or set members — a corrupt blob yields an error, never
//! a panic or a half-built value (`tests/prop_codec_roundtrip.rs`).
//!
//! Encoding walks the tree by reference: the Arc-backed copy-on-write
//! interiors (`idl_object::sharing`) are never cloned or mutated, so an
//! encode does not disturb structural sharing.

use crate::crc::crc32c;
use crate::error::{StorageError, StorageResult};
use idl_object::{Atom, Date, Name, TupleObj, Value, F64};
use std::collections::HashMap;

/// Magic opening a value container.
pub const VALUE_MAGIC: &[u8; 8] = b"IDLBVAL3";

/// Current binary container version. Readers reject anything newer.
pub const CODEC_VERSION: u64 = 3;

/// Decode recursion cap: deeper nesting than this is rejected rather than
/// risking the stack. (serde_json's own recursion limit is 128, so any
/// value that ever lived as JSON is far inside this bound.)
const MAX_DEPTH: usize = 512;

/// The encoding checkpoints are written in: this module's, inside the
/// page file. It has one variant because `DurabilityOptions::codec` and
/// the benchmark package name it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotCodec {
    /// The binary encoding of this module.
    Binary,
}

// ------------------------------------------------------------------ varint

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

// ------------------------------------------------------------------ writer

/// Interning encoder state: the name table in first-encounter order plus
/// the tree bytes being accumulated.
struct Encoder {
    names: Vec<Name>,
    index: HashMap<Name, u64>,
    tree: Vec<u8>,
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_DATE: u8 = 6;
const TAG_TUPLE: u8 = 7;
const TAG_SET: u8 = 8;

impl Encoder {
    fn new() -> Self {
        Encoder { names: Vec::new(), index: HashMap::new(), tree: Vec::new() }
    }

    fn intern(&mut self, name: &Name) -> u64 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u64;
        self.names.push(name.clone());
        self.index.insert(name.clone(), i);
        i
    }

    fn put_name(&mut self, name: &Name) {
        let i = self.intern(name);
        put_varint(&mut self.tree, i);
    }

    fn put_value(&mut self, v: &Value) {
        match v {
            Value::Atom(Atom::Null) => self.tree.push(TAG_NULL),
            Value::Atom(Atom::Bool(false)) => self.tree.push(TAG_FALSE),
            Value::Atom(Atom::Bool(true)) => self.tree.push(TAG_TRUE),
            Value::Atom(Atom::Int(i)) => {
                self.tree.push(TAG_INT);
                put_zigzag(&mut self.tree, *i);
            }
            Value::Atom(Atom::Float(f)) => {
                self.tree.push(TAG_FLOAT);
                self.tree.extend_from_slice(&f.get().to_bits().to_le_bytes());
            }
            Value::Atom(Atom::Str(s)) => {
                self.tree.push(TAG_STR);
                self.put_name(s);
            }
            Value::Atom(Atom::Date(d)) => {
                self.tree.push(TAG_DATE);
                put_zigzag(&mut self.tree, d.to_epoch_days());
            }
            Value::Tuple(t) => {
                self.tree.push(TAG_TUPLE);
                put_varint(&mut self.tree, t.arity() as u64);
                // Collect first: attribute names must be interned before
                // their values may intern string atoms, and the borrow of
                // `t` cannot overlap `self`.
                let pairs: Vec<(Name, &Value)> = t.iter().map(|(k, v)| (k.clone(), v)).collect();
                for (k, v) in pairs {
                    self.put_name(&k);
                    self.put_value(v);
                }
            }
            Value::Set(s) => {
                self.tree.push(TAG_SET);
                put_varint(&mut self.tree, s.len() as u64);
                let members: Vec<&Value> = s.iter().collect();
                for m in members {
                    self.put_value(m);
                }
            }
        }
    }

    /// Emits `name table | tree` into `out`.
    fn finish_into(self, out: &mut Vec<u8>) {
        put_varint(out, self.names.len() as u64);
        for name in &self.names {
            let bytes = name.as_str().as_bytes();
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&self.tree);
    }
}

/// Wraps a finished body in `magic | crc | body`.
fn seal(magic: &[u8; 8], body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&crc32c(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Encodes a value container.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut body = Vec::new();
    put_varint(&mut body, CODEC_VERSION);
    let mut enc = Encoder::new();
    enc.put_value(v);
    enc.finish_into(&mut body);
    seal(VALUE_MAGIC, body)
}

// ------------------------------------------------------------------ reader

fn corrupt(what: impl std::fmt::Display) -> StorageError {
    StorageError::Persist(format!("corrupt binary blob: {what}"))
}

/// Bounds-checked cursor over a container body.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
    names: Vec<Name>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0, names: Vec::new() }
    }

    fn u8(&mut self) -> StorageResult<u8> {
        let b = *self.buf.get(self.at).ok_or_else(|| corrupt("unexpected end of input"))?;
        self.at += 1;
        Ok(b)
    }

    fn bytes(&mut self, len: usize) -> StorageResult<&'a [u8]> {
        if len > self.buf.len().saturating_sub(self.at) {
            return Err(corrupt(format!("length {len} overruns the buffer")));
        }
        let s = &self.buf[self.at..self.at + len];
        self.at += len;
        Ok(s)
    }

    fn varint(&mut self) -> StorageResult<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = (byte & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(corrupt("varint overflows 64 bits"));
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    fn zigzag(&mut self) -> StorageResult<i64> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    fn str_of(&mut self, len: usize) -> StorageResult<&'a str> {
        std::str::from_utf8(self.bytes(len)?).map_err(|e| corrupt(format!("invalid UTF-8: {e}")))
    }

    fn name_table(&mut self) -> StorageResult<()> {
        let count = self.varint()? as usize;
        // Each name costs at least one length byte, so `count` beyond the
        // remaining bytes is structurally impossible.
        if count > self.buf.len().saturating_sub(self.at) {
            return Err(corrupt(format!("name table of {count} entries overruns the buffer")));
        }
        self.names = Vec::with_capacity(count);
        for _ in 0..count {
            let len = self.varint()? as usize;
            let s = self.str_of(len)?;
            self.names.push(Name::new(s));
        }
        Ok(())
    }

    fn name(&mut self) -> StorageResult<Name> {
        let i = self.varint()? as usize;
        self.names.get(i).cloned().ok_or_else(|| corrupt(format!("name index {i} out of table")))
    }

    fn value(&mut self, depth: usize) -> StorageResult<Value> {
        if depth > MAX_DEPTH {
            return Err(corrupt(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.u8()? {
            TAG_NULL => Ok(Value::null()),
            TAG_FALSE => Ok(Value::from(false)),
            TAG_TRUE => Ok(Value::from(true)),
            TAG_INT => Ok(Value::int(self.zigzag()?)),
            TAG_FLOAT => {
                let bits = u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes"));
                Ok(Value::from(Atom::Float(F64::new(f64::from_bits(bits)))))
            }
            TAG_STR => Ok(Value::from(Atom::Str(self.name()?))),
            TAG_DATE => Ok(Value::from(Date::from_epoch_days(self.zigzag()?))),
            TAG_TUPLE => {
                let arity = self.varint()? as usize;
                if arity > self.buf.len().saturating_sub(self.at) {
                    return Err(corrupt(format!("tuple arity {arity} overruns the buffer")));
                }
                // The encoder emits attributes in name order, so decode
                // demands strictly ascending names: one comparison per
                // pair subsumes the duplicate check, and the sorted run
                // bulk-builds the B-tree instead of paying a structural
                // search per insert.
                let mut pairs: Vec<(Name, Value)> = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let k = self.name()?;
                    if pairs.last().is_some_and(|(prev, _)| *prev >= k) {
                        return Err(corrupt(format!("tuple attribute {k} out of canonical order")));
                    }
                    let v = self.value(depth + 1)?;
                    pairs.push((k, v));
                }
                Ok(Value::Tuple(TupleObj::from_pairs(pairs)))
            }
            TAG_SET => {
                let card = self.varint()? as usize;
                if card > self.buf.len().saturating_sub(self.at) {
                    return Err(corrupt(format!("set cardinality {card} overruns the buffer")));
                }
                // Same canonical-order discipline as tuples: members
                // must arrive strictly ascending (no duplicates), and
                // the sorted run builds the set in one bulk pass.
                let mut members: Vec<Value> = Vec::with_capacity(card);
                for _ in 0..card {
                    let v = self.value(depth + 1)?;
                    if members.last().is_some_and(|prev| *prev >= v) {
                        return Err(corrupt("set member out of canonical order"));
                    }
                    members.push(v);
                }
                Ok(Value::Set(members.into_iter().collect()))
            }
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    fn at_end(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Verifies `magic | crc | body` and returns the body.
fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8], what: &str) -> StorageResult<&'a [u8]> {
    if bytes.len() < 12 || &bytes[..8] != magic {
        return Err(corrupt(format!("not a {what} container")));
    }
    let want = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    let got = crc32c(body);
    if got != want {
        return Err(corrupt(format!(
            "{what} checksum mismatch (header {want:#010x}, body {got:#010x})"
        )));
    }
    Ok(body)
}

fn check_version(r: &mut Reader<'_>) -> StorageResult<()> {
    let version = r.varint()?;
    if version > CODEC_VERSION {
        return Err(StorageError::Persist(format!(
            "binary container v{version} is newer than this build understands (v{CODEC_VERSION})"
        )));
    }
    Ok(())
}

fn check_consumed(r: &Reader<'_>, what: &str) -> StorageResult<()> {
    if !r.at_end() {
        return Err(corrupt(format!(
            "{what} has {} trailing bytes past the value",
            r.buf.len() - r.at
        )));
    }
    Ok(())
}

/// Decodes a value container.
pub fn decode_value(bytes: &[u8]) -> StorageResult<Value> {
    let body = unseal(VALUE_MAGIC, bytes, "value")?;
    let mut r = Reader::new(body);
    check_version(&mut r)?;
    r.name_table()?;
    let v = r.value(0)?;
    check_consumed(&r, "value")?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::tuple;

    fn sample_universe() -> Value {
        let mut u = Value::empty_tuple();
        let t = u.as_tuple_mut().unwrap();
        let mut r = Value::empty_set();
        let set = r.as_set_mut().unwrap();
        set.insert(tuple! { stkCode: "hp", clsPrice: 50.5f64 });
        set.insert(tuple! { stkCode: "ibm", clsPrice: 160i64 });
        let mut db = Value::empty_tuple();
        db.as_tuple_mut().unwrap().insert("r", r);
        t.insert("euter", db);
        u
    }

    #[test]
    fn value_roundtrip_all_atoms() {
        let v = tuple! {
            n: Value::null(),
            b: true,
            i: -42i64,
            f: 2.5f64,
            s: "hello",
            d: Value::from(Date::new(1985, 3, 3).unwrap())
        };
        let bytes = encode_value(&v);
        assert_eq!(decode_value(&bytes).unwrap(), v);
        // deterministic: re-encoding the decoded value is byte-identical
        assert_eq!(encode_value(&decode_value(&bytes).unwrap()), bytes);
    }

    #[test]
    fn interning_compresses_repeated_names() {
        let mut u = Value::empty_set();
        let s = u.as_set_mut().unwrap();
        for i in 0..100i64 {
            s.insert(tuple! { aLongAttributeName: i, anotherLongName: "ibm" });
        }
        let binary = encode_value(&u);
        let json = serde_json::to_string(&u).unwrap();
        assert!(binary.len() * 3 < json.len(), "binary {} vs json {}", binary.len(), json.len());
        assert_eq!(decode_value(&binary).unwrap(), u);
    }

    #[test]
    fn every_single_byte_corruption_fails_closed() {
        let u = sample_universe();
        let bytes = encode_value(&u);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(decode_value(&corrupt).is_err(), "flip at byte {i} must not decode");
        }
        // truncations fail closed too
        for cut in 0..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn future_version_is_rejected() {
        // rebuild a container with a bumped version varint
        let mut body = Vec::new();
        put_varint(&mut body, CODEC_VERSION + 1);
        let bytes = seal(VALUE_MAGIC, body);
        let err = decode_value(&bytes).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.at_end());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate_or_panic() {
        // a set claiming u64::MAX members inside a sealed container
        let mut body = Vec::new();
        put_varint(&mut body, CODEC_VERSION);
        put_varint(&mut body, 0); // empty name table
        body.push(TAG_SET);
        put_varint(&mut body, u64::MAX);
        let bytes = seal(VALUE_MAGIC, body);
        assert!(decode_value(&bytes).is_err());

        // nesting past the depth cap
        let mut body = Vec::new();
        put_varint(&mut body, CODEC_VERSION);
        put_varint(&mut body, 0);
        for _ in 0..(MAX_DEPTH + 2) {
            body.push(TAG_SET);
            put_varint(&mut body, 1);
        }
        body.push(TAG_NULL);
        let bytes = seal(VALUE_MAGIC, body);
        let err = decode_value(&bytes).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn encode_does_not_break_cow_sharing() {
        let u = sample_universe();
        let handle = u.clone(); // O(1) CoW clone sharing interiors
        let _ = encode_value(&u);
        match (&u, &handle) {
            (Value::Tuple(a), Value::Tuple(b)) => {
                assert!(a.shares_with(b), "encoding must not unshare the tree")
            }
            _ => unreachable!(),
        }
    }
}
