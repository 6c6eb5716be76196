//! DNS message wire format (RFC 1035 subset).
//!
//! Supports everything the simulated DNS hierarchy needs: queries and
//! responses with A and NS records, iterative-referral responses
//! (NS in authority section plus glue A records in additional), label
//! codec with *parsing* of compression pointers (we emit uncompressed,
//! like many simple servers do).

use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Address;
use core::borrow::Borrow;
use core::fmt;

/// Maximum length of a DNS name in presentation format we accept.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum number of compression pointers followed while parsing one name.
const MAX_POINTER_HOPS: usize = 16;

/// A fully-qualified domain name, stored lower-case without the trailing dot.
///
/// The `Default` name is the DNS root.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Name(String);

impl Name {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        Name(String::new())
    }

    /// Parse from presentation format (e.g. `"www.example.com"`).
    /// Trailing dots are stripped; the name is lower-cased.
    pub fn parse_str(s: &str) -> WireResult<Self> {
        let trimmed = s.trim_end_matches('.');
        if trimmed.len() > MAX_NAME_LEN {
            return Err(WireError::Malformed);
        }
        for label in trimmed.split('.') {
            if trimmed.is_empty() {
                break;
            }
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return Err(WireError::Malformed);
            }
        }
        Ok(Name(trimmed.to_ascii_lowercase()))
    }

    /// The presentation-format string (no trailing dot; empty for root).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.split('.').count()
        }
    }

    /// Iterate over labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.').filter(|l| !l.is_empty())
    }

    /// The parent name (strip the leftmost label); root's parent is root.
    pub fn parent(&self) -> Name {
        match self.0.find('.') {
            Some(i) => Name(self.0[i + 1..].to_string()),
            None => Name::root(),
        }
    }

    /// The presentation strings of this name and of each ancestor,
    /// longest first and ending with the root (`""`): `www.example.com`,
    /// `example.com`, `com`, `""`. These are exactly the names `self` is
    /// a subdomain of.
    pub fn ancestors(&self) -> impl Iterator<Item = &str> {
        let mut next = Some(self.0.as_str());
        core::iter::from_fn(move || {
            let cur = next?;
            next = (!cur.is_empty()).then(|| cur.find('.').map_or("", |i| &cur[i + 1..]));
            Some(cur)
        })
    }

    /// True if `self` is equal to or a subdomain of `other`.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.is_root() {
            return true;
        }
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.ends_with(other.0.as_str())
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }

    /// Wire length when emitted uncompressed.
    pub fn wire_len(&self) -> usize {
        if self.0.is_empty() {
            1
        } else {
            self.0.len() + 2
        }
    }

    /// Emit uncompressed wire format (length-prefixed labels + zero byte).
    pub fn emit(&self, out: &mut Vec<u8>) {
        for label in self.labels() {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
    }

    /// Parse a name starting at `pos` in `msg` (the whole message, so that
    /// compression pointers can be followed). Returns the name and the
    /// offset just past the name *at the original position* (pointers do
    /// not advance the cursor past their own two bytes).
    pub fn parse(msg: &[u8], pos: usize) -> WireResult<(Name, usize)> {
        let mut labels: Vec<String> = Vec::new();
        let mut cursor = pos;
        let mut end_of_name: Option<usize> = None;
        let mut hops = 0usize;
        let mut total_len = 0usize;
        loop {
            let len_byte = *msg.get(cursor).ok_or(WireError::Truncated)?;
            match len_byte {
                0 => {
                    if end_of_name.is_none() {
                        end_of_name = Some(cursor + 1);
                    }
                    break;
                }
                l if l & 0xc0 == 0xc0 => {
                    // Compression pointer.
                    let second = *msg.get(cursor + 1).ok_or(WireError::Truncated)?;
                    let target = ((usize::from(l & 0x3f)) << 8) | usize::from(second);
                    if end_of_name.is_none() {
                        end_of_name = Some(cursor + 2);
                    }
                    // Only allow pointers that point strictly backwards,
                    // which is what real encoders produce and rules out
                    // loops in well-formed input; cap hops anyway.
                    if target >= cursor {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    cursor = target;
                }
                l if l & 0xc0 != 0 => return Err(WireError::Malformed),
                l => {
                    let l = usize::from(l);
                    let start = cursor + 1;
                    let end = start + l;
                    let bytes = msg.get(start..end).ok_or(WireError::Truncated)?;
                    let label = core::str::from_utf8(bytes)
                        .map_err(|_| WireError::Malformed)?
                        .to_ascii_lowercase();
                    total_len += l + 1;
                    if total_len > MAX_NAME_LEN {
                        return Err(WireError::Malformed);
                    }
                    labels.push(label);
                    cursor = end;
                }
            }
        }
        let name = Name(labels.join("."));
        Ok((name, end_of_name.expect("end_of_name set before break")))
    }
}

/// A name compares, orders and hashes exactly as its presentation
/// string, so maps keyed by `Name` can be probed with a `&str` (e.g. a
/// label suffix of another name) without building a `Name`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str(".")
        } else {
            f.write_str(&self.0)
        }
    }
}

/// Record / query types supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Anything else (carried opaque).
    Other(u16),
}

impl From<u16> for RecordType {
    fn from(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            other => RecordType::Other(other),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(v: RecordType) -> u16 {
        match v {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Other(o) => o,
        }
    }
}

/// Response codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Other code.
    Other(u8),
}

impl From<u8> for Rcode {
    fn from(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            o => Rcode::Other(o),
        }
    }
}

impl From<Rcode> for u8 {
    fn from(v: Rcode) -> u8 {
        match v {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Other(o) => o & 0x0f,
        }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Query type.
    pub qtype: RecordType,
}

/// Resource-record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// An IPv4 address.
    A(Ipv4Address),
    /// A name-server name.
    Ns(Name),
    /// Opaque bytes for unsupported types.
    Other(Vec<u8>),
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// Record data (the type is implied by the variant).
    pub rdata: Rdata,
}

impl Record {
    /// An A record.
    pub fn a(name: Name, addr: Ipv4Address, ttl: u32) -> Self {
        Self {
            name,
            ttl,
            rdata: Rdata::A(addr),
        }
    }

    /// An NS record.
    pub fn ns(name: Name, nsdname: Name, ttl: u32) -> Self {
        Self {
            name,
            ttl,
            rdata: Rdata::Ns(nsdname),
        }
    }

    /// The record type implied by the rdata.
    pub fn rtype(&self) -> RecordType {
        match &self.rdata {
            Rdata::A(_) => RecordType::A,
            Rdata::Ns(_) => RecordType::Ns,
            Rdata::Other(_) => RecordType::Other(0xffff),
        }
    }
}

/// A whole DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Authoritative-answer flag.
    pub authoritative: bool,
    /// Recursion-desired flag.
    pub recursion_desired: bool,
    /// Recursion-available flag.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (referral NS records).
    pub authority: Vec<Record>,
    /// Additional section (glue A records).
    pub additional: Vec<Record>,
}

impl Message {
    /// A query for an A record.
    pub fn query_a(id: u16, name: Name, recursion_desired: bool) -> Self {
        Self {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name,
                qtype: RecordType::A,
            }],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Build a response skeleton echoing a query's id and question.
    pub fn response_to(query: &Message) -> Self {
        Self {
            id: query.id,
            is_response: true,
            authoritative: false,
            recursion_desired: query.recursion_desired,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The first A-record answer address, if any.
    pub fn first_answer_a(&self) -> Option<Ipv4Address> {
        self.answers.iter().find_map(|r| match r.rdata {
            Rdata::A(a) => Some(a),
            _ => None,
        })
    }

    /// Exact length of [`Message::to_bytes`] without materializing it
    /// (uncompressed names; paired with the emitter so typed packets can
    /// account bytes without byte shuffling).
    pub fn wire_len(&self) -> usize {
        let mut n = 12;
        for q in &self.questions {
            n += q.name.wire_len() + 4;
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
        {
            n += r.name.wire_len() + 10;
            n += match &r.rdata {
                Rdata::A(_) => 4,
                Rdata::Ns(ns) => ns.wire_len(),
                Rdata::Other(bytes) => bytes.len(),
            };
        }
        n
    }

    /// Serialize to owned wire bytes (uncompressed names).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.recursion_available {
            flags |= 0x0080;
        }
        flags |= u16::from(u8::from(self.rcode));
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authority.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additional.len() as u16).to_be_bytes());
        for q in &self.questions {
            q.name.emit(&mut out);
            out.extend_from_slice(&u16::from(q.qtype).to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
        {
            r.name.emit(&mut out);
            out.extend_from_slice(&u16::from(r.rtype()).to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes());
            out.extend_from_slice(&r.ttl.to_be_bytes());
            match &r.rdata {
                Rdata::A(a) => {
                    out.extend_from_slice(&4u16.to_be_bytes());
                    out.extend_from_slice(&a.0);
                }
                Rdata::Ns(n) => {
                    out.extend_from_slice(&(n.wire_len() as u16).to_be_bytes());
                    n.emit(&mut out);
                }
                Rdata::Other(bytes) => {
                    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
                    out.extend_from_slice(bytes);
                }
            }
        }
        out
    }

    /// Parse from wire bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        let ancount = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let nscount = u16::from_be_bytes([buf[8], buf[9]]) as usize;
        let arcount = u16::from_be_bytes([buf[10], buf[11]]) as usize;
        let mut pos = 12;

        let mut questions = Vec::with_capacity(qdcount.min(8));
        for _ in 0..qdcount {
            let (name, next) = Name::parse(buf, pos)?;
            pos = next;
            let qt = buf.get(pos..pos + 2).ok_or(WireError::Truncated)?;
            let qtype = RecordType::from(u16::from_be_bytes([qt[0], qt[1]]));
            pos += 4; // skip qtype + qclass
            if pos > buf.len() {
                return Err(WireError::Truncated);
            }
            questions.push(Question { name, qtype });
        }

        let parse_records = |pos: &mut usize, count: usize| -> WireResult<Vec<Record>> {
            let mut records = Vec::with_capacity(count.min(16));
            for _ in 0..count {
                let (name, next) = Name::parse(buf, *pos)?;
                *pos = next;
                let hdr = buf.get(*pos..*pos + 10).ok_or(WireError::Truncated)?;
                let rtype = RecordType::from(u16::from_be_bytes([hdr[0], hdr[1]]));
                let ttl = u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
                let rdlength = u16::from_be_bytes([hdr[8], hdr[9]]) as usize;
                *pos += 10;
                let rdata_start = *pos;
                let rdata_bytes = buf
                    .get(rdata_start..rdata_start + rdlength)
                    .ok_or(WireError::Truncated)?;
                let rdata = match rtype {
                    RecordType::A => {
                        if rdlength != 4 {
                            return Err(WireError::BadLength);
                        }
                        Rdata::A(Ipv4Address(rdata_bytes.try_into().unwrap()))
                    }
                    RecordType::Ns => {
                        let (n, _) = Name::parse(buf, rdata_start)?;
                        Rdata::Ns(n)
                    }
                    RecordType::Other(_) => Rdata::Other(rdata_bytes.to_vec()),
                };
                *pos += rdlength;
                records.push(Record { name, ttl, rdata });
            }
            Ok(records)
        };

        let answers = parse_records(&mut pos, ancount)?;
        let authority = parse_records(&mut pos, nscount)?;
        let additional = parse_records(&mut pos, arcount)?;

        Ok(Self {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from(flags as u8),
            questions,
            answers,
            authority,
            additional,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }

    #[test]
    fn name_parse_str_normalizes() {
        assert_eq!(name("WWW.Example.COM.").as_str(), "www.example.com");
        assert_eq!(name("").as_str(), "");
        assert!(name("").is_root());
        assert_eq!(name("a.b.c").label_count(), 3);
    }

    #[test]
    fn name_rejects_bad_labels() {
        assert!(Name::parse_str(&"x".repeat(300)).is_err());
        assert!(Name::parse_str("a..b").is_err());
        assert!(Name::parse_str(&format!("{}.com", "y".repeat(64))).is_err());
    }

    #[test]
    fn name_parent_and_subdomain() {
        let n = name("www.example.com");
        assert_eq!(n.parent(), name("example.com"));
        assert_eq!(name("com").parent(), Name::root());
        assert!(n.is_subdomain_of(&name("example.com")));
        assert!(n.is_subdomain_of(&name("com")));
        assert!(n.is_subdomain_of(&Name::root()));
        assert!(!n.is_subdomain_of(&name("ample.com")));
        assert!(!name("example.com").is_subdomain_of(&n));
    }

    #[test]
    fn name_ancestors_walk_to_root() {
        let n = name("www.example.com");
        let walk: Vec<&str> = n.ancestors().collect();
        assert_eq!(walk, ["www.example.com", "example.com", "com", ""]);
        assert!(walk.iter().all(|a| n.is_subdomain_of(&name(a))));
        assert_eq!(Name::root().ancestors().collect::<Vec<_>>(), [""]);
        let mut by_name = std::collections::BTreeMap::new();
        by_name.insert(name("example.com"), 1);
        assert_eq!(by_name.get("example.com"), Some(&1));
    }

    #[test]
    fn name_wire_roundtrip() {
        for s in [
            "",
            "com",
            "example.com",
            "a.very.deep.sub.domain.example.org",
        ] {
            let n = name(s);
            let mut out = Vec::new();
            n.emit(&mut out);
            assert_eq!(out.len(), n.wire_len());
            let (parsed, next) = Name::parse(&out, 0).unwrap();
            assert_eq!(parsed, n);
            assert_eq!(next, out.len());
        }
    }

    #[test]
    fn name_compression_pointer_parsed() {
        // Build: "example.com" at offset 0, then "www" + pointer to 0.
        let base = name("example.com");
        let mut msg = Vec::new();
        base.emit(&mut msg);
        let ptr_pos = msg.len();
        msg.push(3);
        msg.extend_from_slice(b"www");
        msg.push(0xc0);
        msg.push(0x00);
        let (parsed, next) = Name::parse(&msg, ptr_pos).unwrap();
        assert_eq!(parsed, name("www.example.com"));
        assert_eq!(next, ptr_pos + 4 + 2);
    }

    #[test]
    fn name_forward_pointer_rejected() {
        let msg = [0xc0u8, 0x04, 0, 0, 0];
        assert_eq!(Name::parse(&msg, 0).unwrap_err(), WireError::BadPointer);
    }

    #[test]
    fn name_self_pointer_rejected() {
        let msg = [0xc0u8, 0x00];
        assert_eq!(Name::parse(&msg, 0).unwrap_err(), WireError::BadPointer);
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query_a(0x1234, name("host.d.example"), true);
        let bytes = q.to_bytes();
        assert_eq!(bytes.len(), q.wire_len());
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert!(parsed.recursion_desired);
    }

    #[test]
    fn answer_roundtrip() {
        let q = Message::query_a(7, name("host.d.example"), false);
        let mut r = Message::response_to(&q);
        r.authoritative = true;
        r.answers.push(Record::a(
            name("host.d.example"),
            Ipv4Address::new(101, 0, 0, 5),
            300,
        ));
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.wire_len());
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.first_answer_a(),
            Some(Ipv4Address::new(101, 0, 0, 5))
        );
        assert!(parsed.authoritative);
    }

    #[test]
    fn referral_roundtrip() {
        let q = Message::query_a(9, name("host.d.example"), false);
        let mut r = Message::response_to(&q);
        r.authority
            .push(Record::ns(name("example"), name("ns1.example"), 86400));
        r.additional.push(Record::a(
            name("ns1.example"),
            Ipv4Address::new(12, 0, 0, 53),
            86400,
        ));
        let bytes = r.to_bytes();
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.answers.is_empty());
        assert_eq!(parsed.authority.len(), 1);
        assert_eq!(parsed.additional.len(), 1);
    }

    #[test]
    fn nxdomain_rcode_roundtrip() {
        let q = Message::query_a(9, name("nope.example"), false);
        let mut r = Message::response_to(&q);
        r.rcode = Rcode::NxDomain;
        let parsed = Message::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(parsed.rcode, Rcode::NxDomain);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            Message::from_bytes(&[0u8; 11]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_question_rejected() {
        let q = Message::query_a(7, name("host.example"), false);
        let bytes = q.to_bytes();
        assert!(Message::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
