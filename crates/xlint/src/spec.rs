//! Analysis specifications: entry points, secret inputs, custom
//! instruction signatures, and allowlist annotations.
//!
//! Specs can be built programmatically or parsed from `;!` annotation
//! comments embedded in assembly source. Annotations live behind `;`,
//! so the assembler never sees them and annotated sources assemble
//! unchanged.
//!
//! ```text
//! ;! entry mpn_add_n inputs=a0-a3,sp,ra secret-ptr=a1,a2
//! ;! secret-mem 0x30000 0x60
//! ;! cust ldur regs=1 uregs=1 kind=load
//! lw a4, a1, 0        ;! allow(secret-load)
//! ```
//!
//! Grammar, one annotation per line:
//!
//! - `;! entry <label> [inputs=<regs>] [secret=<regs>] [secret-ptr=<regs>] [public]`
//!   — declares a lint/taint entry point. `<regs>` is a comma list of
//!   `a0`–`a15`, `sp`, `ra`, ranges (`a1-a3`), `carry`, or `none`.
//!   `inputs` defaults to `a0-a5,sp,ra`. `secret` regs hold secret
//!   *values*; `secret-ptr` regs *point to* secret data. `public`
//!   documents a deliberately taint-free entry.
//! - `;! secret-mem <base> <len>` — a byte range holding secret data.
//! - `;! cust <name> regs=<n> uregs=<n> kind=compute|load|store`
//!   `[writes-reg=<i,...>] [reads-carry] [writes-carry]` — the operand
//!   signature of a custom instruction. For `load`/`store`, `regs[0]`
//!   is the pointer and `uregs[0]` the data; the accessed byte count is
//!   `4 * imm`.
//! - `<code> ;! allow(<rule>[, <rule>...])` — suppresses the named
//!   rules on this source line.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use xr32::isa::Reg;

use crate::dataflow::RegSet;
use crate::report::Rule;

/// A byte range in data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRange {
    /// First byte address.
    pub base: u32,
    /// Length in bytes.
    pub len: u32,
}

impl MemRange {
    /// Whether `[addr, addr + width)` overlaps this range.
    pub fn overlaps(&self, addr: u32, width: u32) -> bool {
        let end = self.base.saturating_add(self.len);
        let a_end = addr.saturating_add(width);
        addr < end && self.base < a_end
    }
}

/// What a custom instruction does with memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomKind {
    /// Pure register/ureg computation.
    Compute,
    /// Loads `4 * imm` bytes from the address in `regs[0]` into
    /// `uregs[0]`.
    Load,
    /// Stores `4 * imm` bytes from `uregs[0]` to the address in
    /// `regs[0]`.
    Store,
}

/// The operand signature of one custom instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomSig {
    /// Expected general-register operand count.
    pub regs: usize,
    /// Expected user-register operand count.
    pub uregs: usize,
    /// Memory behaviour.
    pub kind: CustomKind,
    /// Indices into the instruction's `regs` that it writes (e.g. the
    /// carry-limb GPR of `mac`/`msub`).
    pub reg_writes: Vec<usize>,
    /// Whether the instruction consumes the carry flag.
    pub reads_carry: bool,
    /// Whether the instruction sets the carry flag.
    pub writes_carry: bool,
}

impl CustomSig {
    /// A pure compute signature with the given operand counts.
    pub fn compute(regs: usize, uregs: usize) -> CustomSig {
        CustomSig {
            regs,
            uregs,
            kind: CustomKind::Compute,
            reg_writes: Vec::new(),
            reads_carry: false,
            writes_carry: false,
        }
    }
}

/// One analysis entry point (a global label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySpec {
    /// The global label to start from.
    pub label: String,
    /// Registers holding meaningful values at entry (defined).
    pub inputs: RegSet,
    /// Registers holding secret values at entry.
    pub secret: RegSet,
    /// Registers pointing to secret data at entry.
    pub secret_ptr: RegSet,
}

impl EntrySpec {
    /// An entry with the default input set (`a0`–`a5`, `sp`, `ra`) and
    /// no secrets.
    pub fn new(label: impl Into<String>) -> EntrySpec {
        EntrySpec {
            label: label.into(),
            inputs: default_inputs(),
            secret: RegSet::EMPTY,
            secret_ptr: RegSet::EMPTY,
        }
    }
}

/// The default entry input set: argument registers plus `sp` and `ra`.
fn default_inputs() -> RegSet {
    let mut s = RegSet::EMPTY;
    for i in 0..6 {
        s.insert(Reg::new(i));
    }
    s.insert(Reg::SP);
    s.insert(Reg::RA);
    s
}

/// The full specification driving [`crate::analyze`].
#[derive(Debug, Clone, Default)]
pub struct SecretSpec {
    entries: Vec<EntrySpec>,
    secret_mem: Vec<MemRange>,
    allows: BTreeMap<usize, BTreeSet<Rule>>,
    sigs: BTreeMap<String, CustomSig>,
}

/// An annotation parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending annotation.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: bad annotation: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

impl SecretSpec {
    /// Parses every `;!` annotation in `src`.
    pub fn from_source(src: &str) -> Result<SecretSpec, SpecError> {
        let mut spec = SecretSpec::default();
        for (ix, raw) in src.lines().enumerate() {
            let line_no = ix + 1;
            let Some(at) = raw.find(";!") else { continue };
            let ann = raw[at + 2..].trim();
            let err = |message: String| SpecError {
                line: line_no,
                message,
            };
            let mut words = ann.split_whitespace();
            match words.next() {
                Some("entry") => {
                    let label = words
                        .next()
                        .ok_or_else(|| err("entry needs a label".into()))?;
                    let mut entry = EntrySpec::new(label);
                    for w in words {
                        if let Some(list) = w.strip_prefix("inputs=") {
                            entry.inputs = parse_reg_list(list).map_err(&err)?;
                        } else if let Some(list) = w.strip_prefix("secret=") {
                            entry.secret = parse_reg_list(list).map_err(&err)?;
                        } else if let Some(list) = w.strip_prefix("secret-ptr=") {
                            entry.secret_ptr = parse_reg_list(list).map_err(&err)?;
                        } else if w == "public" {
                            // Documentation only: entry has no secrets.
                        } else {
                            return Err(err(format!("unknown entry attribute `{w}`")));
                        }
                    }
                    // Every entry has a valid stack and return address.
                    entry.inputs.insert(Reg::SP);
                    entry.inputs.insert(Reg::RA);
                    entry.inputs = entry.inputs.union(entry.secret).union(entry.secret_ptr);
                    spec.entries.push(entry);
                }
                Some("secret-mem") => {
                    let base = words
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("secret-mem needs a base address".into()))?;
                    let len = words
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("secret-mem needs a length".into()))?;
                    spec.secret_mem.push(MemRange { base, len });
                }
                Some("cust") => {
                    let name = words
                        .next()
                        .ok_or_else(|| err("cust needs a name".into()))?;
                    let mut sig = CustomSig::compute(0, 0);
                    for w in words {
                        if let Some(n) = w.strip_prefix("regs=") {
                            sig.regs = n
                                .parse()
                                .map_err(|_| err(format!("bad regs count `{n}`")))?;
                        } else if let Some(n) = w.strip_prefix("uregs=") {
                            sig.uregs = n
                                .parse()
                                .map_err(|_| err(format!("bad uregs count `{n}`")))?;
                        } else if let Some(k) = w.strip_prefix("kind=") {
                            sig.kind = match k {
                                "compute" => CustomKind::Compute,
                                "load" => CustomKind::Load,
                                "store" => CustomKind::Store,
                                other => return Err(err(format!("unknown kind `{other}`"))),
                            };
                        } else if let Some(list) = w.strip_prefix("writes-reg=") {
                            for part in list.split(',') {
                                let ix = part
                                    .parse()
                                    .map_err(|_| err(format!("bad operand index `{part}`")))?;
                                sig.reg_writes.push(ix);
                            }
                        } else if w == "reads-carry" {
                            sig.reads_carry = true;
                        } else if w == "writes-carry" {
                            sig.writes_carry = true;
                        } else {
                            return Err(err(format!("unknown cust attribute `{w}`")));
                        }
                    }
                    spec.sigs.insert(name.to_owned(), sig);
                }
                Some(word) if word.starts_with("allow(") => {
                    let inner = ann
                        .strip_prefix("allow(")
                        .and_then(|rest| rest.strip_suffix(')'))
                        .ok_or_else(|| err("allow(...) is unterminated".into()))?;
                    for part in inner.split(',') {
                        let name = part.trim();
                        let rule = Rule::from_name(name)
                            .ok_or_else(|| err(format!("unknown rule `{name}`")))?;
                        spec.allows.entry(line_no).or_default().insert(rule);
                    }
                }
                Some(other) => {
                    return Err(err(format!("unknown annotation `{other}`")));
                }
                None => return Err(err("empty annotation".into())),
            }
        }
        Ok(spec)
    }

    /// Adds an entry point.
    pub fn add_entry(&mut self, entry: EntrySpec) -> &mut Self {
        self.entries.push(entry);
        self
    }

    /// Declared entry points.
    pub fn entries(&self) -> &[EntrySpec] {
        &self.entries
    }

    /// Declared secret memory ranges.
    pub fn secret_mem(&self) -> &[MemRange] {
        &self.secret_mem
    }

    /// Looks up a custom-instruction signature.
    pub fn sig(&self, name: &str) -> Option<&CustomSig> {
        self.sigs.get(name)
    }

    /// Whether any signatures are registered at all (if none are, the
    /// custom lints stay silent rather than flag every `cust`).
    pub fn has_sigs(&self) -> bool {
        !self.sigs.is_empty()
    }

    /// Whether `rule` is allowlisted on `line`.
    pub fn is_allowed(&self, line: Option<usize>, rule: Rule) -> bool {
        line.and_then(|l| self.allows.get(&l))
            .is_some_and(|rules| rules.contains(&rule))
    }
}

fn parse_num(s: &str) -> Option<u32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_reg(s: &str) -> Result<Reg, String> {
    match s {
        "sp" => return Ok(Reg::SP),
        "ra" => return Ok(Reg::RA),
        _ => {}
    }
    let ix: u8 = s
        .strip_prefix('a')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unknown register `{s}`"))?;
    if ix > 15 {
        return Err(format!("register index out of range in `{s}`"));
    }
    Ok(Reg::new(ix))
}

fn parse_reg_list(list: &str) -> Result<RegSet, String> {
    let mut out = RegSet::EMPTY;
    if list == "none" {
        return Ok(out);
    }
    for part in list.split(',') {
        let part = part.trim();
        if part == "carry" {
            out.insert_carry();
        } else if let Some((lo, hi)) = part.split_once('-') {
            let lo = parse_reg(lo)?;
            let hi = parse_reg(hi)?;
            if lo.index() > hi.index() {
                return Err(format!("empty register range `{part}`"));
            }
            for ix in lo.index()..=hi.index() {
                out.insert(Reg::new(ix as u8));
            }
        } else {
            out.insert(parse_reg(part)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entry_with_lists_and_ranges() {
        let spec = SecretSpec::from_source(
            ";! entry mpn_add_n inputs=a0-a3,sp,ra secret-ptr=a1,a2\nmain: halt\n",
        )
        .unwrap();
        let e = &spec.entries()[0];
        assert_eq!(e.label, "mpn_add_n");
        assert!(e.inputs.contains(Reg::new(0)));
        assert!(e.inputs.contains(Reg::new(3)));
        assert!(!e.inputs.contains(Reg::new(4)));
        assert!(e.inputs.contains(Reg::SP));
        assert!(e.secret_ptr.contains(Reg::new(1)));
        assert!(e.secret_ptr.contains(Reg::new(2)));
        // secret-ptr regs are implicitly inputs.
        assert!(e.inputs.contains(Reg::new(2)));
    }

    #[test]
    fn parses_secret_mem_and_cust() {
        let spec = SecretSpec::from_source(
            ";! secret-mem 0x30000 96\n;! cust mac4 regs=2 uregs=2 kind=compute writes-reg=1\n",
        )
        .unwrap();
        assert_eq!(spec.secret_mem()[0].base, 0x30000);
        assert_eq!(spec.secret_mem()[0].len, 96);
        let sig = spec.sig("mac4").unwrap();
        assert_eq!(sig.regs, 2);
        assert_eq!(sig.reg_writes, vec![1]);
    }

    #[test]
    fn parses_trailing_allow() {
        let spec =
            SecretSpec::from_source("main:\n lw a1, a0, 0 ;! allow(secret-load, dead-store)\n")
                .unwrap();
        assert!(spec.is_allowed(Some(2), Rule::SecretLoad));
        assert!(spec.is_allowed(Some(2), Rule::DeadStore));
        assert!(!spec.is_allowed(Some(2), Rule::SecretBranch));
        assert!(!spec.is_allowed(Some(1), Rule::SecretLoad));
    }

    #[test]
    fn rejects_unknown_annotation() {
        let e = SecretSpec::from_source(";! entrypoint f\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("entrypoint"));
    }

    #[test]
    fn rejects_unknown_rule_in_allow() {
        assert!(SecretSpec::from_source("nop ;! allow(no-such-rule)\n").is_err());
    }

    #[test]
    fn mem_range_overlap() {
        let r = MemRange {
            base: 0x100,
            len: 16,
        };
        assert!(r.overlaps(0x100, 4));
        assert!(r.overlaps(0x10c, 4));
        assert!(!r.overlaps(0x110, 4));
        assert!(r.overlaps(0xfd, 4));
        assert!(!r.overlaps(0xfc, 4));
    }
}
