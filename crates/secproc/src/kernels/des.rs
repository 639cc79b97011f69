//! XR32 assembly kernels for DES block encryption.
//!
//! Two variants share the entry label `des_block`:
//!
//! - [`base_source`]: optimized software. IP/FP are table-driven bit
//!   loops; the sixteen rounds use the classic SP-box formulation
//!   (S-box and P fused into eight 64-entry `u32` tables) with E
//!   computed by shifts/masks. The host lays out the tables and the key
//!   schedule in memory (see [`MemoryMap`]).
//! - [`accel_source`]: the `desperm` and `desround` custom
//!   instructions do the permutations and a full Feistel round in
//!   hardware.
//!
//! Calling convention for `des_block`:
//! `a0` = block address (two words: `[low32, high32]`), `a1` = key
//! schedule address, `a2` = direction (0 = encrypt, 1 = decrypt).
//! The block is transformed in place.

use ciphers::des;
use xr32::cpu::Cpu;

/// Memory layout used by the DES kernels.
#[derive(Debug, Clone, Copy)]
pub struct MemoryMap {
    /// Eight SP tables, 64 `u32` entries each (2 KiB total).
    pub sp_tables: u32,
    /// IP source-bit table: 64 words, each the 1-based source bit.
    pub ip_table: u32,
    /// FP source-bit table: 64 words.
    pub fp_table: u32,
    /// Key schedule: 16 rounds × 2 words (`[hi16, lo32]` of the 48-bit
    /// round key... stored as `[bits 47..32, bits 31..0]`).
    pub key_schedule: u32,
    /// Block buffer (2 words).
    pub block: u32,
}

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap {
            sp_tables: 0x0001_0000,
            ip_table: 0x0001_1000,
            fp_table: 0x0001_1200,
            key_schedule: 0x0001_1400,
            block: 0x0001_1600,
        }
    }
}

/// The fused S-box + P tables (`SP[i][six]` = `P(sbox_i(six) << (28 - 4i))`).
fn sp_tables() -> [[u32; 64]; 8] {
    let mut out = [[0u32; 64]; 8];
    for (i, sbox) in des::SBOXES.iter().enumerate() {
        for six in 0..64 {
            let row = ((six >> 4) & 2) | (six & 1);
            let col = (six >> 1) & 0xf;
            let s = sbox[(row * 16 + col) as usize] as u32;
            let positioned = s << (28 - 4 * i);
            out[i][six as usize] = des::permute_p(positioned);
        }
    }
    out
}

/// Writes tables and key schedule into simulator memory.
///
/// # Panics
///
/// Panics if the memory regions are out of range for the core.
pub fn install(cpu: &mut Cpu, map: &MemoryMap, round_keys: &[u64; 16]) {
    let sp = sp_tables();
    for (i, table) in sp.iter().enumerate() {
        cpu.mem_mut()
            .write_words(map.sp_tables + (i as u32) * 256, table)
            .expect("sp tables in range");
    }
    let ip: Vec<u32> = des::IP.iter().map(|&b| b as u32).collect();
    let fp: Vec<u32> = des::FP.iter().map(|&b| b as u32).collect();
    cpu.mem_mut()
        .write_words(map.ip_table, &ip)
        .expect("ip table in range");
    cpu.mem_mut()
        .write_words(map.fp_table, &fp)
        .expect("fp table in range");
    let ks: Vec<u32> = round_keys
        .iter()
        .flat_map(|&k| [(k >> 32) as u32, k as u32])
        .collect();
    cpu.mem_mut()
        .write_words(map.key_schedule, &ks)
        .expect("key schedule in range");
}

/// Writes a 64-bit block to the block buffer.
pub fn write_block(cpu: &mut Cpu, map: &MemoryMap, block: u64) {
    cpu.mem_mut()
        .write_words(map.block, &[block as u32, (block >> 32) as u32])
        .expect("block buffer in range");
}

/// Reads the 64-bit block back.
pub fn read_block(cpu: &Cpu, map: &MemoryMap) -> u64 {
    let w = cpu
        .mem()
        .read_words(map.block, 2)
        .expect("block buffer in range");
    ((w[1] as u64) << 32) | w[0] as u64
}

/// Base (software) DES kernel.
pub fn base_source(map: &MemoryMap) -> String {
    let sp = map.sp_tables;
    let ip = map.ip_table;
    let fp = map.fp_table;
    format!(
        "
; --- permute64: a3 = table address; block in (a4=hi, a5=lo);
;     result in (a6=hi, a7=lo). Clobbers a8-a11. Bit 1 = MSB of hi.
permute64:
    movi a6, 0
    movi a7, 0
    movi a8, 64            ; counter
.p64_loop:
    lw   a9, a3, 0         ; src bit (1-based)
    addi a3, a3, 4
    ; fetch bit (src <= 32 ? hi : lo)
    movi a10, 32
    bltu a10, a9, .p64_lo
    ; bit in hi word: value = (hi >> (32 - src)) & 1
    sub  a10, a10, a9
    ; shift right by (32 - src): for src = 32 the shift is 0
    srl  a11, a4, a10
    j .p64_got
.p64_lo:
    addi a9, a9, -32
    movi a10, 32
    sub  a10, a10, a9
    srl  a11, a5, a10
.p64_got:
    andi a11, a11, 1
    ; out = (out << 1) | bit, across the (a6,a7) pair
    srli a10, a7, 31
    slli a7, a7, 1
    or   a7, a7, a11
    slli a6, a6, 1
    or   a6, a6, a10
    addi a8, a8, -1
    movi a10, 0
    bne  a8, a10, .p64_loop
    ret

; --- feistel: a0 = R, a1 = key schedule entry address;
;     returns f(R, K) in a0. Clobbers a2, a8-a13.
;     The eight SP-table lookups are secret-indexed by construction:
;     the software variant accepts this classic table-lookup leak
;     (allow-listed below); the accelerated variant removes it.
feistel:
    lw   a12, a1, 0        ; key hi (bits 47..32)
    lw   a13, a1, 4        ; key lo (bits 31..0)
    movi a2, 0             ; output accumulator
    ; chunk 0 (row 1): ((R & 1) << 5) | (R >> 27) & 0x1f, key bits 47..42
    andi a8, a0, 1
    slli a8, a8, 5
    srli a9, a0, 27
    andi a9, a9, 31
    or   a8, a8, a9
    srli a10, a12, 10      ; key chunk 0 = bits 47..42 of K = khi >> 10
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; chunks 1..6 (rows 2..7): ((R >> (31 - 4i)) & 0x3f) ^ keychunk_i
    ;   unrolled with key chunk extraction from the 48-bit pair.
    ; i = 1: R >> 23, key bits 41..36 -> khi >> 4
    srli a8, a0, 23
    andi a8, a8, 63
    srli a10, a12, 4
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp1}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; i = 2: R >> 19, key bits 35..30 -> (khi << 2 | klo >> 30) & 63
    srli a8, a0, 19
    andi a8, a8, 63
    slli a10, a12, 2
    srli a11, a13, 30
    or   a10, a10, a11
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp2}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; i = 3: R >> 15, key bits 29..24 -> klo >> 24
    srli a8, a0, 15
    andi a8, a8, 63
    srli a10, a13, 24
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp3}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; i = 4: R >> 11, key bits 23..18 -> klo >> 18
    srli a8, a0, 11
    andi a8, a8, 63
    srli a10, a13, 18
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp4}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; i = 5: R >> 7, key bits 17..12 -> klo >> 12
    srli a8, a0, 7
    andi a8, a8, 63
    srli a10, a13, 12
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp5}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; i = 6: R >> 3, key bits 11..6 -> klo >> 6
    srli a8, a0, 3
    andi a8, a8, 63
    srli a10, a13, 6
    andi a10, a10, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp6}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    ; chunk 7 (row 8): ((R & 0x1f) << 1) | (R >> 31), key bits 5..0
    andi a8, a0, 31
    slli a8, a8, 1
    srli a9, a0, 31
    or   a8, a8, a9
    andi a10, a13, 63
    xor  a8, a8, a10
    slli a8, a8, 2
    movi a9, {sp7}
    add  a9, a9, a8
    lw   a10, a9, 0        ;! allow(secret-load)
    xor  a2, a2, a10
    mov  a0, a2
    ret

; --- des_block: a0 = block addr, a1 = key schedule addr, a2 = direction
;! entry des_block inputs=a0-a2 secret-ptr=a0,a1
des_block:
    addi sp, sp, -28
    sw   ra, sp, 0
    sw   a0, sp, 4         ; block address
    sw   a1, sp, 8         ; key schedule base
    sw   a2, sp, 12        ; direction
    lw   a5, a0, 0         ; lo
    lw   a4, a0, 4         ; hi
    movi a3, {ip}
    call permute64
    sw   a6, sp, 16        ; L
    sw   a7, sp, 20        ; R
    movi a4, 0
    sw   a4, sp, 24        ; round
.db_round:
    lw   a2, sp, 12
    lw   a4, sp, 24
    movi a6, 0
    beq  a2, a6, .db_fwd
    movi a5, 15
    sub  a5, a5, a4
    j .db_key
.db_fwd:
    mov  a5, a4
.db_key:
    slli a5, a5, 3         ; 8 bytes per key entry
    lw   a1, sp, 8
    add  a1, a1, a5
    lw   a0, sp, 20        ; R
    call feistel
    lw   a2, sp, 16        ; L
    xor  a0, a0, a2        ; new R = L ^ f(R, K)
    lw   a3, sp, 20
    sw   a3, sp, 16        ; L = old R
    sw   a0, sp, 20        ; R = new R
    lw   a4, sp, 24
    addi a4, a4, 1
    sw   a4, sp, 24
    movi a5, 16
    bne  a4, a5, .db_round
    ; preoutput: hi = R16, lo = L16
    lw   a4, sp, 20
    lw   a5, sp, 16
    movi a3, {fp}
    call permute64
    lw   a0, sp, 4
    sw   a7, a0, 0
    sw   a6, a0, 4
    lw   ra, sp, 0
    addi sp, sp, 28
    ret
",
        sp = sp,
        sp1 = sp + 256,
        sp2 = sp + 512,
        sp3 = sp + 768,
        sp4 = sp + 1024,
        sp5 = sp + 1280,
        sp6 = sp + 1536,
        sp7 = sp + 1792,
        ip = ip,
        fp = fp,
    )
}

/// Accelerated DES kernel using `desperm` + `desround`.
pub fn accel_source(_map: &MemoryMap) -> String {
    "
;! cust ldur regs=1 uregs=1 kind=load
;! cust stur regs=1 uregs=1 kind=store
;! cust desperm regs=0 uregs=1 kind=compute
;! cust desround regs=2 uregs=1 kind=compute
; --- des_block: a0 = block addr, a1 = key schedule addr, a2 = direction
;! entry des_block inputs=a0-a2 secret-ptr=a0,a1
des_block:
    cust ldur ur0, a0, 2   ; [lo, hi]
    cust desperm ur0, 0    ; IP
    movi a4, 0
    movi a6, 0
.db_round:
    beq  a2, a6, .db_fwd
    movi a5, 15
    sub  a5, a5, a4
    j .db_key
.db_fwd:
    mov  a5, a4
.db_key:
    slli a5, a5, 3
    add  a5, a5, a1
    lw   a7, a5, 0         ; key hi
    lw   a8, a5, 4         ; key lo
    cust desround ur0, a7, a8
    addi a4, a4, 1
    movi a5, 16
    bne  a4, a5, .db_round
    ; swap halves (the final round must not swap; desround always
    ; swaps, so undo once): ur0 = [R, L] words -> FP expects [lo, hi]
    ; with preoutput (R16, L16). desround leaves [new_r, old_r]...
    ; handled by the host-validated layout below: after 16 rounds the
    ; register holds [R16, L16] as [word0, word1]; preoutput hi = R16,
    ; lo = L16 means words = [L16, R16] -> swap needed.
    cust stur ur0, a0, 2
    lw   a7, a0, 0
    lw   a8, a0, 4
    sw   a8, a0, 0
    sw   a7, a0, 4
    cust ldur ur0, a0, 2
    cust desperm ur0, 1    ; FP
    cust stur ur0, a0, 2
    ret
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_tables_compose_to_feistel() {
        // f(R, K) computed via SP tables + E windows must equal the
        // reference feistel function, for a sample of inputs.
        let sp = sp_tables();
        let f_via_sp = |r: u32, k: u64| -> u32 {
            let mut out = 0u32;
            for i in 0..8 {
                let chunk = match i {
                    0 => ((r & 1) << 5) | ((r >> 27) & 0x1f),
                    7 => ((r & 0x1f) << 1) | (r >> 31),
                    _ => (r >> (27 - 4 * i)) & 0x3f,
                };
                let kchunk = ((k >> (42 - 6 * i)) & 0x3f) as u32;
                out ^= sp[i as usize][(chunk ^ kchunk) as usize];
            }
            out
        };
        for (r, k) in [
            (0u32, 0u64),
            (0xffff_ffff, 0xffff_ffff_ffff),
            (0x0123_4567, 0x1B02_EFFC_7072),
            (0x89ab_cdef, 0x79AE_D9DB_C9E5),
        ] {
            assert_eq!(f_via_sp(r, k), des::feistel_f(r, k), "r={r:#x} k={k:#x}");
        }
    }
}
