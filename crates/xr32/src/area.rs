//! Structural area model in NAND2 gate equivalents (GE).
//!
//! The paper obtains area numbers by synthesizing TIE descriptions with
//! Synopsys Design Compiler against the NEC CB-11 0.18 µm library. We
//! replace signed-off synthesis with a transparent structural model:
//! every custom instruction is priced as a sum of datapath building
//! blocks. The A-D-curve machinery only needs *relative, monotone*
//! areas, which this model provides; the constants are chosen to sit in
//! the plausible range for 0.18 µm-era standard-cell implementations.

/// Gate-equivalent cost of one 32-bit carry-lookahead adder.
const ADDER32_GE: u64 = 350;
/// Gate-equivalent cost of one 32×32 multiplier (with 64-bit product).
const MUL32_GE: u64 = 6_500;
/// Gate equivalents per register (flip-flop) bit.
const REG_BIT_GE: u64 = 8;
/// Gate equivalents per lookup-table bit (ROM).
const LUT_BIT_GE: u64 = 2;
/// Gate equivalents per 2:1 mux bit.
const MUX_BIT_GE: u64 = 3;
/// Gate equivalents per XOR bit.
const XOR_BIT_GE: u64 = 3;
/// Fixed decode/control overhead charged once per custom instruction.
const DECODE_GE: u64 = 150;
/// Gate equivalents per reorder-buffer entry (PC + result tag + status
/// flip-flops plus the commit-port wiring share).
const ROB_ENTRY_GE: u64 = 520;
/// Gate equivalents per reservation-station entry (two operand/tag
/// fields plus wake-up comparators — CAM-dominated, hence pricier than
/// a ROB slot).
const RS_ENTRY_GE: u64 = 680;
/// Gate equivalents per load-store-queue entry (address + data fields
/// plus the disambiguation comparators).
const LSQ_ENTRY_GE: u64 = 740;
/// Gate equivalents per 2-bit branch-predictor counter (two flip-flops
/// plus the indexed-array wiring share).
const PREDICTOR_COUNTER_GE: u64 = 22;

/// Builder for the structural area of one custom-instruction datapath.
///
/// # Examples
///
/// ```
/// use xr32::area::AreaModel;
///
/// // A 4-lane multi-precision adder with one 128-bit user register port.
/// let area = AreaModel::new()
///     .adders32(4)
///     .register_bits(128)
///     .gates();
/// assert!(area > 4 * 350);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaModel {
    gates: u64,
}

impl AreaModel {
    /// Starts an estimate containing only the per-instruction decode
    /// overhead.
    pub fn new() -> Self {
        AreaModel { gates: DECODE_GE }
    }

    /// Adds `n` 32-bit adders.
    pub fn adders32(self, n: u64) -> Self {
        self.fixed(n * ADDER32_GE)
    }

    /// Adds `n` 32×32 multipliers.
    pub fn muls32(self, n: u64) -> Self {
        self.fixed(n * MUL32_GE)
    }

    /// Adds `n` bits of register (flip-flop) state.
    pub fn register_bits(self, n: u64) -> Self {
        self.fixed(n * REG_BIT_GE)
    }

    /// Adds `n` bits of ROM/lookup table.
    pub fn lut_bits(self, n: u64) -> Self {
        self.fixed(n * LUT_BIT_GE)
    }

    /// Adds `n` bits of 2:1 multiplexing.
    pub fn mux_bits(self, n: u64) -> Self {
        self.fixed(n * MUX_BIT_GE)
    }

    /// Adds `n` bits of XOR network.
    pub fn xor_bits(self, n: u64) -> Self {
        self.fixed(n * XOR_BIT_GE)
    }

    /// Adds `n` reorder-buffer entries.
    pub fn rob_entries(self, n: u64) -> Self {
        self.fixed(n * ROB_ENTRY_GE)
    }

    /// Adds `n` reservation-station entries.
    pub fn rs_entries(self, n: u64) -> Self {
        self.fixed(n * RS_ENTRY_GE)
    }

    /// Adds `n` load-store-queue entries.
    pub fn lsq_entries(self, n: u64) -> Self {
        self.fixed(n * LSQ_ENTRY_GE)
    }

    /// Adds `n` 2-bit branch-predictor counters.
    pub fn predictor_counters(self, n: u64) -> Self {
        self.fixed(n * PREDICTOR_COUNTER_GE)
    }

    /// Adds a fixed number of gates (wiring-dominated structures such as
    /// bit permutations).
    pub fn fixed(mut self, gates: u64) -> Self {
        self.gates += gates;
        self
    }

    /// Total gate-equivalent count.
    pub fn gates(self) -> u64 {
        self.gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_is_decode_only() {
        assert_eq!(AreaModel::new().gates(), DECODE_GE);
    }

    #[test]
    fn costs_accumulate() {
        let a = AreaModel::new().adders32(2).register_bits(64).gates();
        assert_eq!(a, DECODE_GE + 2 * ADDER32_GE + 64 * REG_BIT_GE);
    }

    #[test]
    fn more_resources_cost_more() {
        let small = AreaModel::new().adders32(2).gates();
        let large = AreaModel::new().adders32(16).gates();
        assert!(large > small);
    }

    #[test]
    fn multiplier_dwarfs_adder() {
        const { assert!(MUL32_GE > 10 * ADDER32_GE) }
    }

    #[test]
    fn ooo_structures_accumulate() {
        let a = AreaModel::new()
            .rob_entries(32)
            .rs_entries(16)
            .lsq_entries(8)
            .predictor_counters(256)
            .gates();
        assert_eq!(
            a,
            DECODE_GE
                + 32 * ROB_ENTRY_GE
                + 16 * RS_ENTRY_GE
                + 8 * LSQ_ENTRY_GE
                + 256 * PREDICTOR_COUNTER_GE
        );
    }

    #[test]
    fn cam_entries_cost_more_than_rob_slots() {
        // Wake-up/disambiguation CAMs dominate plain status storage.
        const { assert!(RS_ENTRY_GE > ROB_ENTRY_GE) }
        const { assert!(LSQ_ENTRY_GE > RS_ENTRY_GE) }
    }
}
