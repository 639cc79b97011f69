//! TIE-style instruction extensions: custom instructions and wide user
//! registers.
//!
//! This is the XR32 analog of Tensilica's TIE: a designer describes a
//! custom instruction by its *semantics* (a Rust closure over the
//! execution context), its *latency* in cycles, and its *area* from the
//! structural model in [`crate::area`]. Registered instructions become
//! available to assembly programs as `cust <name> <operands…>`.

use crate::isa::{CustomOp, UserReg};
use crate::mem::Memory;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Wide register file visible only to custom instructions (TIE "user
/// registers" / states).
#[derive(Debug, Clone)]
pub struct UserRegFile {
    words: usize,
    regs: Vec<Vec<u32>>,
}

impl UserRegFile {
    /// Creates `count` registers of `words` 32-bit words each, zeroed.
    pub fn new(count: usize, words: usize) -> Self {
        UserRegFile {
            words,
            regs: vec![vec![0; words]; count],
        }
    }

    /// Width of each register in words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when the file has no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Borrows a register's words.
    ///
    /// # Panics
    ///
    /// Panics if the register index is out of range for this
    /// configuration.
    pub fn get(&self, ur: UserReg) -> &[u32] {
        &self.regs[ur.index()]
    }

    /// Mutably borrows a register's words.
    ///
    /// # Panics
    ///
    /// Panics if the register index is out of range.
    pub fn get_mut(&mut self, ur: UserReg) -> &mut [u32] {
        &mut self.regs[ur.index()]
    }

    /// Zeroes every register.
    pub fn clear(&mut self) {
        for r in &mut self.regs {
            r.fill(0);
        }
    }
}

/// Execution context handed to a custom instruction's semantic closure.
pub struct ExecCtx<'a> {
    /// General-purpose registers.
    pub regs: &'a mut [u32; 16],
    /// Wide user registers.
    pub uregs: &'a mut UserRegFile,
    /// Data memory.
    pub mem: &'a mut Memory,
    /// The carry flag.
    pub carry: &'a mut bool,
}

/// Error raised by a custom instruction's semantics (wraps into
/// [`crate::cpu::SimError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomInsnError {
    /// Instruction name.
    pub name: String,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for CustomInsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "custom instruction `{}` failed: {}",
            self.name, self.message
        )
    }
}

impl std::error::Error for CustomInsnError {}

/// Semantic function of a custom instruction.
pub type CustomFn =
    Arc<dyn Fn(&mut ExecCtx<'_>, &CustomOp) -> Result<(), CustomInsnError> + Send + Sync>;

/// One designer-defined custom instruction: semantics + latency + area.
#[derive(Clone)]
pub struct CustomInsnDef {
    /// Name used in assembly (`cust <name> …`).
    pub name: String,
    /// Execution latency in cycles (≥ 1).
    pub latency: u32,
    /// Structural area in gate equivalents (see [`crate::area`]).
    pub area: u64,
    /// The instruction's semantics.
    pub exec: CustomFn,
}

impl fmt::Debug for CustomInsnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomInsnDef")
            .field("name", &self.name)
            .field("latency", &self.latency)
            .field("area", &self.area)
            .finish()
    }
}

impl CustomInsnDef {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn new(
        name: impl Into<String>,
        latency: u32,
        area: u64,
        exec: impl Fn(&mut ExecCtx<'_>, &CustomOp) -> Result<(), CustomInsnError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        assert!(latency >= 1, "latency must be at least one cycle");
        CustomInsnDef {
            name: name.into(),
            latency,
            area,
            exec: Arc::new(exec),
        }
    }
}

/// The set of custom instructions configured into a core.
#[derive(Debug, Clone, Default)]
pub struct ExtensionSet {
    insns: BTreeMap<String, CustomInsnDef>,
}

impl ExtensionSet {
    /// An empty extension set (the base processor).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an instruction, replacing any previous definition with
    /// the same name. Returns the previous definition if there was one.
    pub fn register(&mut self, def: CustomInsnDef) -> Option<CustomInsnDef> {
        self.insns.insert(def.name.clone(), def)
    }

    /// Looks up an instruction by name.
    pub fn get(&self, name: &str) -> Option<&CustomInsnDef> {
        self.insns.get(name)
    }

    /// Iterates over registered instruction names (sorted).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.insns.keys().map(String::as_str)
    }

    /// Number of registered instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when no custom instructions are registered.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    fn nop_def(name: &str, area: u64) -> CustomInsnDef {
        CustomInsnDef::new(name, 1, area, |_, _| Ok(()))
    }

    #[test]
    fn user_regs_store_wide_values() {
        let mut f = UserRegFile::new(4, 4);
        f.get_mut(UserReg::new(2)).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(f.get(UserReg::new(2)), &[1, 2, 3, 4]);
        assert_eq!(f.get(UserReg::new(0)), &[0, 0, 0, 0]);
        f.clear();
        assert_eq!(f.get(UserReg::new(2)), &[0, 0, 0, 0]);
    }

    #[test]
    fn extension_set_registers_and_sums_area() {
        let mut ext = ExtensionSet::new();
        assert!(ext.is_empty());
        ext.register(nop_def("add4", 1000));
        ext.register(nop_def("mac1", 7000));
        assert_eq!(ext.len(), 2);
        assert!(ext.get("add4").is_some());
        assert!(ext.get("missing").is_none());
        assert_eq!(ext.names().collect::<Vec<_>>(), vec!["add4", "mac1"]);
    }

    #[test]
    fn reregistering_replaces() {
        let mut ext = ExtensionSet::new();
        ext.register(nop_def("x", 10));
        let old = ext.register(nop_def("x", 20));
        assert_eq!(old.expect("previous def").area, 10);
        assert_eq!(ext.get("x").map(|d| d.area), Some(20));
    }

    #[test]
    fn custom_semantics_can_mutate_state() {
        let def = CustomInsnDef::new("swap01", 1, 0, |ctx, _op| {
            ctx.regs.swap(0, 1);
            Ok(())
        });
        let mut regs = [0u32; 16];
        regs[0] = 7;
        regs[1] = 9;
        let mut uregs = UserRegFile::new(1, 1);
        let mut mem = Memory::new(16);
        let mut carry = false;
        let mut ctx = ExecCtx {
            regs: &mut regs,
            uregs: &mut uregs,
            mem: &mut mem,
            carry: &mut carry,
        };
        let op = CustomOp {
            name: "swap01".into(),
            regs: vec![Reg::new(0), Reg::new(1)],
            uregs: vec![],
            imm: 0,
        };
        (def.exec)(&mut ctx, &op).unwrap();
        assert_eq!(regs[0], 9);
        assert_eq!(regs[1], 7);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = CustomInsnDef::new("bad", 0, 0, |_, _| Ok(()));
    }
}
