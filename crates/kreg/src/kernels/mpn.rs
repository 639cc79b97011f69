//! XR32 assembly kernels for the multi-precision basic operations.
//!
//! Three kernel libraries share the same entry labels and calling
//! convention, so the ISS-backed ops provider can swap them freely:
//!
//! - [`base32_source`]: plain RISC code, 32-bit limbs (the paper's
//!   optimized-software baseline);
//! - [`accel32_source`]: custom-instruction datapaths (`ldur`/`stur`,
//!   `add<k>`, `mac<k>`, …) with scalar tail loops;
//! - [`base16_source`]: 16-bit limbs using only the 32-bit multiplier's
//!   low half (radix-2¹⁶ axis of the design space).
//!
//! Calling convention (32-bit limbs; 16-bit variants take halfword
//! counts/pointers):
//!
//! | label | a0 | a1 | a2 | a3 | a4 | returns a0 |
//! |---|---|---|---|---|---|---|
//! | `mpn_add_n` | rp | ap | bp | n | — | carry 0/1 |
//! | `mpn_sub_n` | rp | ap | bp | n | — | borrow 0/1 |
//! | `mpn_mul_1` | rp | ap | n | b | — | carry limb |
//! | `mpn_addmul_1` | rp | ap | n | b | — | carry limb |
//! | `mpn_submul_1` | rp | ap | n | b | — | borrow limb |
//! | `mpn_lshift` | rp | ap | n | cnt | — | bits out |
//! | `mpn_rshift` | rp | ap | n | cnt | — | bits out |
//! | `div_qhat` | n2 | n1 | n0 | d1 | d0 | qhat |
//!
//! All vector arguments require `n >= 1`.

/// The base (no custom instructions) 32-bit limb kernel library.
pub fn base32_source() -> String {
    let mut s = String::new();
    s.push_str(ADD_N_32);
    s.push_str(SUB_N_32);
    s.push_str(MUL1_32);
    s.push_str(ADDMUL1_32);
    s.push_str(SUBMUL1_32);
    s.push_str(LSHIFT_32);
    s.push_str(RSHIFT_32);
    s.push_str(DIV_QHAT_32);
    s
}

/// The canonical (base RISC, 32-bit) source of one kernel as a
/// standalone annotated unit — the input the `xopt` rewriting pipeline
/// consumes. `None` for kernels outside the 32-bit mpn library.
pub fn canonical_source32(kernel: crate::KernelId) -> Option<&'static str> {
    use crate::id;
    Some(match kernel {
        id::ADD_N => ADD_N_32,
        id::SUB_N => SUB_N_32,
        id::MUL_1 => MUL1_32,
        id::ADDMUL_1 => ADDMUL1_32,
        id::SUBMUL_1 => SUBMUL1_32,
        id::LSHIFT => LSHIFT_32,
        id::RSHIFT => RSHIFT_32,
        id::DIV_QHAT => DIV_QHAT_32,
        _ => return None,
    })
}

const ADD_N_32: &str = "
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:                 ; a0=rp a1=ap a2=bp a3=n -> a0=carry
    movi a6, 0
    clc
.an_loop:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addi a1, a1, 4
    addi a2, a2, 4
    addc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a3, a3, -1
    bne  a3, a6, .an_loop
    movi a0, 0
    movi a5, 0
    addc a0, a0, a5
    ret
";

const SUB_N_32: &str = "
;! entry mpn_sub_n inputs=a0-a3 secret-ptr=a1,a2
mpn_sub_n:                 ; a0=rp a1=ap a2=bp a3=n -> a0=borrow
    movi a6, 0
    clc
.sn_loop:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addi a1, a1, 4
    addi a2, a2, 4
    subc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a3, a3, -1
    bne  a3, a6, .sn_loop
    movi a9, 0
    subc a9, a9, a9        ; a9 = 0 - borrow (0 or 0xffffffff)
    movi a0, 0
    sub  a0, a0, a9        ; a0 = borrow
    ret
";

const MUL1_32: &str = "
;! entry mpn_mul_1 inputs=a0-a3 secret=a3 secret-ptr=a1
mpn_mul_1:                 ; a0=rp a1=ap a2=n a3=b -> a0=carry limb
    movi a6, 0
    movi a7, 0             ; carry
.m1_loop:
    lw    a4, a1, 0
    addi  a1, a1, 4
    mul   a5, a4, a3
    mulhu a4, a4, a3
    add   a5, a5, a7
    sltu  a7, a5, a7
    add   a7, a7, a4
    sw    a5, a0, 0
    addi  a0, a0, 4
    addi  a2, a2, -1
    bne   a2, a6, .m1_loop
    mov   a0, a7
    ret
";

const ADDMUL1_32: &str = "
;! entry mpn_addmul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_addmul_1:              ; a0=rp a1=ap a2=n a3=b -> a0=carry limb
    movi a6, 0
    movi a7, 0             ; carry
.am_loop:
    lw    a4, a1, 0
    lw    a5, a0, 0
    addi  a1, a1, 4
    mul   a8, a4, a3
    mulhu a9, a4, a3
    add   a8, a8, a7
    sltu  a10, a8, a7
    add   a9, a9, a10
    add   a8, a8, a5
    sltu  a10, a8, a5
    add   a9, a9, a10
    sw    a8, a0, 0
    addi  a0, a0, 4
    mov   a7, a9
    addi  a2, a2, -1
    bne   a2, a6, .am_loop
    mov   a0, a7
    ret
";

const SUBMUL1_32: &str = "
;! entry mpn_submul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_submul_1:              ; a0=rp a1=ap a2=n a3=b -> a0=borrow limb
    movi a6, 0
    movi a7, 0             ; borrow
.sm_loop:
    lw    a4, a1, 0
    lw    a5, a0, 0
    addi  a1, a1, 4
    mul   a8, a4, a3
    mulhu a9, a4, a3
    add   a8, a8, a7
    sltu  a10, a8, a7
    add   a9, a9, a10
    sltu  a10, a5, a8      ; borrow out of r - lo
    sub   a5, a5, a8
    add   a7, a9, a10
    sw    a5, a0, 0
    addi  a0, a0, 4
    addi  a2, a2, -1
    bne   a2, a6, .sm_loop
    mov   a0, a7
    ret
";

const LSHIFT_32: &str = "
;! entry mpn_lshift inputs=a0-a3 secret-ptr=a1
mpn_lshift:                ; a0=rp a1=ap a2=n a3=cnt -> a0=bits out
    movi a6, 0
    movi a7, 0
    movi a8, 32
    sub  a8, a8, a3
.ls_loop:
    lw   a4, a1, 0
    addi a1, a1, 4
    sll  a5, a4, a3
    or   a5, a5, a7
    srl  a7, a4, a8
    sw   a5, a0, 0
    addi a0, a0, 4
    addi a2, a2, -1
    bne  a2, a6, .ls_loop
    mov  a0, a7
    ret
";

const RSHIFT_32: &str = "
;! entry mpn_rshift inputs=a0-a3 secret-ptr=a1
mpn_rshift:                ; a0=rp a1=ap a2=n a3=cnt -> a0=bits out
    movi a6, 0
    movi a7, 0
    movi a8, 32
    sub  a8, a8, a3
    slli a9, a2, 2
    add  a0, a0, a9
    add  a1, a1, a9
.rs_loop:
    addi a1, a1, -4
    lw   a4, a1, 0
    srl  a5, a4, a3
    or   a5, a5, a7
    sll  a7, a4, a8
    addi a0, a0, -4
    sw   a5, a0, 0
    addi a2, a2, -1
    bne  a2, a6, .rs_loop
    mov  a0, a7
    ret
";

const DIV_QHAT_32: &str = "
; div_qhat is bit-serial restoring division: variable-time by
; algorithm, so it is exempt from the constant-time policy (declared
; `public`); see DESIGN.md for the rationale.
;! entry div_qhat inputs=a0-a4 public
div_qhat:                  ; a0=n2 a1=n1 a2=n0 a3=d1 a4=d0 -> a0=qhat
    movi a11, 0
    sltu a5, a0, a3        ; a5 = n2 < d1
    xori a5, a5, 1         ; a5 = qhi = (n2 >= d1)
    beq  a5, a11, .dq_norest
    sub  a0, a0, a3
.dq_norest:
    mov  a7, a0            ; rem
    movi a6, 0             ; qlo
    movi a8, 32
.dq_loop:
    srli a9, a7, 31        ; hibit
    slli a7, a7, 1
    srli a10, a1, 31
    or   a7, a7, a10
    slli a1, a1, 1
    slli a6, a6, 1
    bne  a9, a11, .dq_sub
    sltu a9, a7, a3
    bne  a9, a11, .dq_next
.dq_sub:
    sub  a7, a7, a3
    ori  a6, a6, 1
.dq_next:
    addi a8, a8, -1
    bne  a8, a11, .dq_loop
    movi a10, 0            ; rhat high
.dq_corr:
    beq  a5, a11, .dq_qfit
    bne  a6, a11, .dq_declo
    addi a5, a5, -1
.dq_declo:
    addi a6, a6, -1
    add  a7, a7, a3
    sltu a9, a7, a3
    add  a10, a10, a9
    j .dq_corr
.dq_qfit:
    bne  a10, a11, .dq_done ; rhat >= b
    mul   a9, a6, a4
    mulhu a12, a6, a4
    bltu a7, a12, .dq_toobig
    bltu a12, a7, .dq_done
    bgeu a2, a9, .dq_done
.dq_toobig:
    addi a6, a6, -1
    add  a7, a7, a3
    sltu a9, a7, a3
    add  a10, a10, a9
    j .dq_qfit
.dq_done:
    mov a0, a6
    ret
";

/// The custom-instruction-accelerated 32-bit kernel library.
/// `add_lanes` selects the `add<k>`/`sub<k>` datapath width
/// (2/4/8/16); `mac_lanes` selects the `mac<k>`/`msub<k>` width
/// (1/2/4). The corresponding extension set must be configured into the
/// core (see `secproc::insns::mpn_extension_set`).
pub fn accel32_source(add_lanes: u32, mac_lanes: u32) -> String {
    assert!(crate::ADD_LANES.contains(&add_lanes));
    assert!(crate::MAC_LANES.contains(&mac_lanes));
    let al = add_lanes;
    let ab = 4 * add_lanes; // byte stride
    let ml = mac_lanes;
    let mb = 4 * mac_lanes;
    format!(
        "
;! cust ldur regs=1 uregs=1 kind=load
;! cust stur regs=1 uregs=1 kind=store
;! cust add{al} regs=0 uregs=3 kind=compute reads-carry writes-carry
;! cust sub{al} regs=0 uregs=3 kind=compute reads-carry writes-carry
;! cust mac{ml} regs=2 uregs=2 kind=compute writes-reg=1
;! cust msub{ml} regs=2 uregs=2 kind=compute writes-reg=1
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:                 ; accelerated: {al}-lane adder
    movi a6, 0
    movi a7, {al}
    clc
.aa_blk:
    bltu a3, a7, .aa_tail
    cust ldur ur0, a1, {al}
    cust ldur ur1, a2, {al}
    cust add{al} ur2, ur0, ur1
    cust stur ur2, a0, {al}
    addi a0, a0, {ab}
    addi a1, a1, {ab}
    addi a2, a2, {ab}
    addi a3, a3, -{al}
    j .aa_blk
.aa_tail:
    beq  a3, a6, .aa_done
    lw   a4, a1, 0
    lw   a5, a2, 0
    addc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, 4
    addi a3, a3, -1
    j .aa_tail
.aa_done:
    movi a4, 0
    movi a0, 0
    addc a0, a0, a4
    ret

;! entry mpn_sub_n inputs=a0-a3 secret-ptr=a1,a2
mpn_sub_n:                 ; accelerated: {al}-lane subtractor
    movi a6, 0
    movi a7, {al}
    clc
.as_blk:
    bltu a3, a7, .as_tail
    cust ldur ur0, a1, {al}
    cust ldur ur1, a2, {al}
    cust sub{al} ur2, ur0, ur1
    cust stur ur2, a0, {al}
    addi a0, a0, {ab}
    addi a1, a1, {ab}
    addi a2, a2, {ab}
    addi a3, a3, -{al}
    j .as_blk
.as_tail:
    beq  a3, a6, .as_done
    lw   a4, a1, 0
    lw   a5, a2, 0
    subc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, 4
    addi a3, a3, -1
    j .as_tail
.as_done:
    movi a9, 0
    subc a9, a9, a9
    movi a0, 0
    sub  a0, a0, a9
    ret

;! entry mpn_addmul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_addmul_1:              ; accelerated: {ml}-lane MAC
    movi a6, 0
    movi a4, 0             ; carry limb in GPR
    movi a7, {ml}
.am_blk:
    bltu a2, a7, .am_tail
    cust ldur ur0, a0, {ml}
    cust ldur ur1, a1, {ml}
    cust mac{ml} ur0, ur1, a3, a4
    cust stur ur0, a0, {ml}
    addi a0, a0, {mb}
    addi a1, a1, {mb}
    addi a2, a2, -{ml}
    j .am_blk
.am_tail:
    beq  a2, a6, .am_done
    lw    a5, a1, 0
    lw    a8, a0, 0
    mul   a9, a5, a3
    mulhu a10, a5, a3
    add   a9, a9, a4
    sltu  a11, a9, a4
    add   a10, a10, a11
    add   a9, a9, a8
    sltu  a11, a9, a8
    add   a10, a10, a11
    sw    a9, a0, 0
    mov   a4, a10
    addi  a0, a0, 4
    addi  a1, a1, 4
    addi  a2, a2, -1
    j .am_tail
.am_done:
    mov a0, a4
    ret

;! entry mpn_submul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_submul_1:              ; accelerated: {ml}-lane multiply-subtract
    movi a6, 0
    movi a4, 0
    movi a7, {ml}
.sm_blk:
    bltu a2, a7, .sm_tail
    cust ldur ur0, a0, {ml}
    cust ldur ur1, a1, {ml}
    cust msub{ml} ur0, ur1, a3, a4
    cust stur ur0, a0, {ml}
    addi a0, a0, {mb}
    addi a1, a1, {mb}
    addi a2, a2, -{ml}
    j .sm_blk
.sm_tail:
    beq  a2, a6, .sm_done
    lw    a5, a1, 0
    lw    a8, a0, 0
    mul   a9, a5, a3
    mulhu a10, a5, a3
    add   a9, a9, a4
    sltu  a11, a9, a4
    add   a10, a10, a11
    sltu  a11, a8, a9
    sub   a8, a8, a9
    add   a4, a10, a11
    sw    a8, a0, 0
    addi  a0, a0, 4
    addi  a1, a1, 4
    addi  a2, a2, -1
    j .sm_tail
.sm_done:
    mov a0, a4
    ret
{mul1}
{lshift}
{rshift}
{divq}
",
        mul1 = MUL1_32,
        lshift = LSHIFT_32,
        rshift = RSHIFT_32,
        divq = DIV_QHAT_32,
    )
}

/// The base 16-bit limb (radix 2¹⁶) kernel library. Pointers address
/// halfwords; `n` counts 16-bit limbs. Only the multiplier's 32-bit
/// product is needed — no `mulhu` — which is the radix's attraction on
/// narrow cores.
pub fn base16_source() -> String {
    "
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:                 ; a0=rp a1=ap a2=bp a3=n -> a0=carry
    movi a6, 0
    movi a7, 0             ; carry
.an_loop:
    lhu  a4, a1, 0
    lhu  a5, a2, 0
    addi a1, a1, 2
    addi a2, a2, 2
    add  a4, a4, a5
    add  a4, a4, a7
    srli a7, a4, 16
    sh   a4, a0, 0
    addi a0, a0, 2
    addi a3, a3, -1
    bne  a3, a6, .an_loop
    mov  a0, a7
    ret

;! entry mpn_sub_n inputs=a0-a3 secret-ptr=a1,a2
mpn_sub_n:                 ; a0=rp a1=ap a2=bp a3=n -> a0=borrow
    movi a6, 0
    movi a7, 0             ; borrow
.sn_loop:
    lhu  a4, a1, 0
    lhu  a5, a2, 0
    addi a1, a1, 2
    addi a2, a2, 2
    sub  a4, a4, a5
    sub  a4, a4, a7
    srli a7, a4, 16
    andi a7, a7, 1         ; borrow propagates through bit 16 of the wrap
    slli a4, a4, 16
    srli a4, a4, 16
    sh   a4, a0, 0
    addi a0, a0, 2
    addi a3, a3, -1
    bne  a3, a6, .sn_loop
    mov  a0, a7
    ret

;! entry mpn_mul_1 inputs=a0-a3 secret=a3 secret-ptr=a1
mpn_mul_1:                 ; a0=rp a1=ap a2=n a3=b -> a0=carry limb
    movi a6, 0
    movi a7, 0
.m1_loop:
    lhu  a4, a1, 0
    addi a1, a1, 2
    mul  a5, a4, a3        ; 16x16 -> 32, no mulhu needed
    add  a5, a5, a7
    slli a4, a5, 16
    srli a4, a4, 16
    srli a7, a5, 16
    sh   a4, a0, 0
    addi a0, a0, 2
    addi a2, a2, -1
    bne  a2, a6, .m1_loop
    mov  a0, a7
    ret

;! entry mpn_addmul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_addmul_1:              ; a0=rp a1=ap a2=n a3=b -> a0=carry limb
    movi a6, 0
    movi a7, 0
.am_loop:
    lhu  a4, a1, 0
    lhu  a5, a0, 0
    addi a1, a1, 2
    mul  a8, a4, a3
    add  a8, a8, a5
    add  a8, a8, a7
    slli a4, a8, 16
    srli a4, a4, 16
    srli a7, a8, 16
    sh   a4, a0, 0
    addi a0, a0, 2
    addi a2, a2, -1
    bne  a2, a6, .am_loop
    mov  a0, a7
    ret

;! entry mpn_submul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_submul_1:              ; a0=rp a1=ap a2=n a3=b -> a0=borrow limb
    movi a6, 0
    movi a7, 0
.sm_loop:
    lhu  a4, a1, 0
    lhu  a5, a0, 0
    addi a1, a1, 2
    mul  a8, a4, a3
    add  a8, a8, a7        ; prod += borrow-in
    slli a9, a8, 16
    srli a9, a9, 16        ; lo
    srli a7, a8, 16        ; hi
    sltu a10, a5, a9
    sub  a5, a5, a9
    add  a7, a7, a10
    slli a5, a5, 16
    srli a5, a5, 16
    sh   a5, a0, 0
    addi a0, a0, 2
    addi a2, a2, -1
    bne  a2, a6, .sm_loop
    mov  a0, a7
    ret

;! entry mpn_lshift inputs=a0-a3 secret-ptr=a1
mpn_lshift:                ; a0=rp a1=ap a2=n a3=cnt(1..15) -> a0=bits out
    movi a6, 0
    movi a7, 0
    movi a8, 16
    sub  a8, a8, a3
.ls_loop:
    lhu  a4, a1, 0
    addi a1, a1, 2
    sll  a5, a4, a3
    or   a5, a5, a7
    slli a9, a5, 16
    srli a9, a9, 16
    srl  a7, a4, a8
    sh   a9, a0, 0
    addi a0, a0, 2
    addi a2, a2, -1
    bne  a2, a6, .ls_loop
    mov  a0, a7
    ret

;! entry mpn_rshift inputs=a0-a3 secret-ptr=a1
mpn_rshift:                ; a0=rp a1=ap a2=n a3=cnt(1..15) -> a0=bits out
    movi a6, 0
    movi a7, 0
    movi a8, 16
    sub  a8, a8, a3
    slli a9, a2, 1
    add  a0, a0, a9
    add  a1, a1, a9
.rs_loop:
    addi a1, a1, -2
    lhu  a4, a1, 0
    srl  a5, a4, a3
    or   a5, a5, a7
    sll  a7, a4, a8
    slli a7, a7, 16
    srli a7, a7, 16
    addi a0, a0, -2
    sh   a5, a0, 0
    addi a2, a2, -1
    bne  a2, a6, .rs_loop
    mov  a0, a7
    ret

; Variable-time by algorithm (restoring division), exempt from the
; constant-time policy; see DESIGN.md.
;! entry div_qhat inputs=a0-a4 public
div_qhat:                  ; a0=n2 a1=n1 a2=n0 a3=d1 a4=d0 -> a0=qhat (16-bit values)
    movi a11, 0
    sltu a5, a0, a3
    xori a5, a5, 1         ; qhi = n2 >= d1
    beq  a5, a11, .dq_norest
    sub  a0, a0, a3
.dq_norest:
    slli a7, a0, 16        ; num = (n2<<16) | n1, fits 32 bits
    or   a7, a7, a1
    movi a6, 0             ; qlo via restoring division of num / d1
    movi a8, 0             ; rem
    movi a9, 32            ; iterate over all 32 bits of num
.dq_loop:
    srli a10, a7, 31
    slli a7, a7, 1
    slli a8, a8, 1
    or   a8, a8, a10
    slli a6, a6, 1
    sltu a10, a8, a3
    bne  a10, a11, .dq_next
    sub  a8, a8, a3
    ori  a6, a6, 1
.dq_next:
    addi a9, a9, -1
    bne  a9, a11, .dq_loop
    ; qhat = (qhi<<16)+qlo conceptually; qlo here is full num/d1 which
    ; already includes the high part, so fold qhi back in.
    slli a5, a5, 16
    add  a6, a6, a5
    mov  a7, a8            ; rhat
    movi a10, 0
.dq_corr:
    srli a9, a6, 16        ; qhat >= 2^16 ?
    beq  a9, a11, .dq_qfit
    addi a6, a6, -1
    add  a7, a7, a3
    srli a9, a7, 16
    add  a10, a10, a9
    slli a7, a7, 16
    srli a7, a7, 16
    j .dq_corr
.dq_qfit:
    bne  a10, a11, .dq_done
    mul  a9, a6, a4        ; qlo*d0 fits 32 bits
    slli a12, a7, 16
    or   a12, a12, a2      ; (rhat<<16)|n0
    bgeu a12, a9, .dq_done
    addi a6, a6, -1
    add  a7, a7, a3
    srli a9, a7, 16
    add  a10, a10, a9
    slli a7, a7, 16
    srli a7, a7, 16
    j .dq_qfit
.dq_done:
    mov a0, a6
    ret
"
    .to_owned()
}
