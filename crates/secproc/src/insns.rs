//! The platform's custom-instruction catalog (TIE candidates).
//!
//! Each entry gives the designer-specified semantics (executed by the
//! XR32 simulator), a latency, and a structural area from
//! [`xr32::area`]. Instructions come in resource-parameterized families,
//! mirroring the paper's A-D-curve points:
//!
//! - `ldur`/`stur`: wide user-register load/store (shared plumbing for
//!   all multi-precision acceleration; the paper's `load_UR`/`store_UR`);
//! - `add{2,4,8,16}`: k-lane multi-precision add with carry (the
//!   `mpn_add_n` family of Fig. 5(a)), and `sub{2,4,8,16}`;
//! - `mac{1,2,4}`: k-lane multiply-accumulate (the `mpn_addmul_1`
//!   family), and `msub{1,2,4}` for division's submul;
//! - `desperm`/`desround`: DES initial/final permutation and a full
//!   Feistel round (S-boxes + P in hardware);
//! - `aesround`: a full AES round (S-boxes + MixColumns).

use ciphers::{aes, des};
use xr32::area::AreaModel;
use xr32::ext::{CustomInsnDef, CustomInsnError, ExecCtx, ExtensionSet};
use xr32::isa::CustomOp;

fn fail(name: &str, msg: impl Into<String>) -> CustomInsnError {
    CustomInsnError {
        name: name.to_owned(),
        message: msg.into(),
    }
}

/// Builds the `ldur` wide load: `cust ldur ur<d>, a<base>, k` loads `k`
/// words from the address in the base register into the user register.
/// Latency models a 128-bit memory port.
pub fn ldur() -> CustomInsnDef {
    CustomInsnDef::new(
        "ldur",
        2,
        AreaModel::new().register_bits(64).fixed(300).gates(),
        |ctx: &mut ExecCtx<'_>, op: &CustomOp| {
            let k = op.imm as usize;
            let ur = *op
                .uregs
                .first()
                .ok_or_else(|| fail("ldur", "needs a user register"))?;
            let base = ctx.regs[op
                .regs
                .first()
                .ok_or_else(|| fail("ldur", "needs a base register"))?
                .index()];
            if k == 0 || k > ctx.uregs.words() {
                return Err(fail("ldur", format!("bad word count {k}")));
            }
            for i in 0..k {
                let v = ctx
                    .mem
                    .load_u32(base + 4 * i as u32)
                    .map_err(|e| fail("ldur", e.to_string()))?;
                ctx.uregs.get_mut(ur)[i] = v;
            }
            Ok(())
        },
    )
}

/// Builds the `stur` wide store (inverse of [`ldur`]).
pub fn stur() -> CustomInsnDef {
    CustomInsnDef::new(
        "stur",
        2,
        AreaModel::new().fixed(300).gates(),
        |ctx: &mut ExecCtx<'_>, op: &CustomOp| {
            let k = op.imm as usize;
            let ur = *op
                .uregs
                .first()
                .ok_or_else(|| fail("stur", "needs a user register"))?;
            let base = ctx.regs[op
                .regs
                .first()
                .ok_or_else(|| fail("stur", "needs a base register"))?
                .index()];
            if k == 0 || k > ctx.uregs.words() {
                return Err(fail("stur", format!("bad word count {k}")));
            }
            for i in 0..k {
                let v = ctx.uregs.get(ur)[i];
                ctx.mem
                    .store_u32(base + 4 * i as u32, v)
                    .map_err(|e| fail("stur", e.to_string()))?;
            }
            Ok(())
        },
    )
}

/// Latency of a k-lane carry-chained adder.
fn add_latency(k: u32) -> u32 {
    match k {
        0..=4 => 1,
        5..=8 => 2,
        _ => 3,
    }
}

/// Builds the `add<k>` family member: `cust add<k> ur_d, ur_a, ur_b`
/// computes `ur_d = ur_a + ur_b + carry` over `k` 32-bit lanes, updating
/// the carry flag.
pub fn add_k(k: u32) -> CustomInsnDef {
    let name = format!("add{k}");
    let area = AreaModel::new()
        .adders32(k as u64)
        .mux_bits(32 * k as u64)
        .gates();
    CustomInsnDef::new(name.clone(), add_latency(k), area, move |ctx, op| {
        let [d, a, b] = op.uregs[..] else {
            return Err(fail(&format!("add{k}"), "needs ur_d, ur_a, ur_b"));
        };
        let mut carry = *ctx.carry;
        for i in 0..k as usize {
            let t = ctx.uregs.get(a)[i] as u64 + ctx.uregs.get(b)[i] as u64 + carry as u64;
            ctx.uregs.get_mut(d)[i] = t as u32;
            carry = t >> 32 != 0;
        }
        *ctx.carry = carry;
        Ok(())
    })
}

/// Builds the `sub<k>` family member (borrow-chained k-lane subtract).
fn sub_k(k: u32) -> CustomInsnDef {
    let name = format!("sub{k}");
    let area = AreaModel::new()
        .adders32(k as u64)
        .mux_bits(32 * k as u64)
        .gates();
    CustomInsnDef::new(name.clone(), add_latency(k), area, move |ctx, op| {
        let [d, a, b] = op.uregs[..] else {
            return Err(fail(&format!("sub{k}"), "needs ur_d, ur_a, ur_b"));
        };
        let mut borrow = *ctx.carry;
        for i in 0..k as usize {
            let t = (ctx.uregs.get(a)[i] as u64)
                .wrapping_sub(ctx.uregs.get(b)[i] as u64)
                .wrapping_sub(borrow as u64);
            ctx.uregs.get_mut(d)[i] = t as u32;
            borrow = t >> 32 != 0;
        }
        *ctx.carry = borrow;
        Ok(())
    })
}

/// Builds the `mac<k>` family member: `cust mac<k> ur_r, ur_a, a_b,
/// a_c` computes `ur_r += ur_a * a_b + a_c` over `k` lanes with an
/// internal carry chain; the outgoing carry limb is written back to
/// `a_c`. `k` parallel 32×32 multipliers give latency 2 regardless of
/// `k` (at quadratic area cost).
pub fn mac_k(k: u32) -> CustomInsnDef {
    let name = format!("mac{k}");
    let area = AreaModel::new()
        .muls32(k as u64)
        .adders32(2 * k as u64)
        .gates();
    CustomInsnDef::new(name.clone(), 2, area, move |ctx, op| {
        let [r, a] = op.uregs[..] else {
            return Err(fail(&format!("mac{k}"), "needs ur_r, ur_a"));
        };
        let [b_reg, c_reg] = op.regs[..] else {
            return Err(fail(
                &format!("mac{k}"),
                "needs multiplier and carry registers",
            ));
        };
        let b = ctx.regs[b_reg.index()] as u64;
        let mut carry = ctx.regs[c_reg.index()] as u64;
        for i in 0..k as usize {
            let t = ctx.uregs.get(a)[i] as u64 * b + ctx.uregs.get(r)[i] as u64 + carry;
            ctx.uregs.get_mut(r)[i] = t as u32;
            carry = t >> 32;
        }
        ctx.regs[c_reg.index()] = carry as u32;
        Ok(())
    })
}

/// Builds the `msub<k>` family member: `ur_r -= ur_a * a_b + borrow`,
/// borrow limb in/out through a GPR (the division inner loop).
fn msub_k(k: u32) -> CustomInsnDef {
    let name = format!("msub{k}");
    let area = AreaModel::new()
        .muls32(k as u64)
        .adders32(2 * k as u64)
        .gates();
    CustomInsnDef::new(name.clone(), 2, area, move |ctx, op| {
        let [r, a] = op.uregs[..] else {
            return Err(fail(&format!("msub{k}"), "needs ur_r, ur_a"));
        };
        let [b_reg, c_reg] = op.regs[..] else {
            return Err(fail(
                &format!("msub{k}"),
                "needs multiplier and borrow registers",
            ));
        };
        let b = ctx.regs[b_reg.index()] as u64;
        let mut carry = ctx.regs[c_reg.index()] as u64;
        for i in 0..k as usize {
            let prod = ctx.uregs.get(a)[i] as u64 * b + carry;
            let lo = prod as u32;
            carry = prod >> 32;
            let (d, borrow) = ctx.uregs.get(r)[i].overflowing_sub(lo);
            ctx.uregs.get_mut(r)[i] = d;
            carry += borrow as u64;
        }
        ctx.regs[c_reg.index()] = carry as u32;
        Ok(())
    })
}

/// Builds `desperm`: applies DES IP (imm = 0) or FP (imm = 1) to the
/// 64-bit block held in a user register as `[low, high]` words.
/// Permutations are pure wiring in hardware: latency 1, small area.
pub fn desperm() -> CustomInsnDef {
    CustomInsnDef::new(
        "desperm",
        1,
        AreaModel::new().mux_bits(64).fixed(400).gates(),
        |ctx, op| {
            let ur = *op
                .uregs
                .first()
                .ok_or_else(|| fail("desperm", "needs a user register"))?;
            let words = ctx.uregs.get(ur);
            let block = ((words[1] as u64) << 32) | words[0] as u64;
            let out = match op.imm {
                0 => des::initial_permutation(block),
                1 => des::final_permutation(block),
                other => return Err(fail("desperm", format!("bad selector {other}"))),
            };
            let w = ctx.uregs.get_mut(ur);
            w[0] = out as u32;
            w[1] = (out >> 32) as u32;
            Ok(())
        },
    )
}

/// Builds `desround`: one full DES Feistel round on the `[R, L]` words
/// of a user register with the 48-bit round key supplied as two GPRs
/// (`regs[0]` = bits 47..32, `regs[1]` = bits 31..0). All eight S-boxes
/// plus E and P in hardware.
pub fn desround() -> CustomInsnDef {
    // 8 S-boxes of 64×4 bits plus XOR trees.
    let area = AreaModel::new()
        .lut_bits(8 * 64 * 4)
        .xor_bits(48 + 32)
        .fixed(600)
        .gates();
    CustomInsnDef::new("desround", 2, area, |ctx, op| {
        let ur = *op
            .uregs
            .first()
            .ok_or_else(|| fail("desround", "needs a user register"))?;
        let [k_hi, k_lo] = op.regs[..] else {
            return Err(fail("desround", "needs two key registers"));
        };
        let key = ((ctx.regs[k_hi.index()] as u64) << 32) | ctx.regs[k_lo.index()] as u64;
        if key >> 48 != 0 {
            return Err(fail("desround", "round key exceeds 48 bits"));
        }
        let words = ctx.uregs.get(ur);
        let (l, r) = (words[1], words[0]);
        let new_r = l ^ des::feistel_f(r, key);
        let w = ctx.uregs.get_mut(ur);
        w[1] = r; // new L = old R
        w[0] = new_r;
        Ok(())
    })
}

/// Builds `aesround`: one full AES round on the 16-byte state in
/// `ur_state` (4 column words, little-endian bytes = state columns) with
/// the round key in `ur_key`. `imm = 1` selects the final round (no
/// MixColumns); `imm = 2` an inverse round; `imm = 3` the inverse final
/// round.
pub fn aesround() -> CustomInsnDef {
    // 16 logic-minimized S-boxes + MixColumns XOR network.
    let area = AreaModel::new()
        .fixed(16 * 550)
        .xor_bits(128 * 3)
        .fixed(1200)
        .gates();
    CustomInsnDef::new("aesround", 2, area, |ctx, op| {
        let [st_ur, key_ur] = op.uregs[..] else {
            return Err(fail("aesround", "needs state and key user registers"));
        };
        let mut state = [0u8; 16];
        for (i, w) in ctx.uregs.get(st_ur)[..4].iter().enumerate() {
            state[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        let kw = ctx.uregs.get(key_ur);
        let round_key = [kw[0], kw[1], kw[2], kw[3]];
        match op.imm {
            0 => {
                aes::sub_bytes(&mut state);
                aes::shift_rows(&mut state);
                aes::mix_columns(&mut state);
                aes::add_round_key(&mut state, &round_key);
            }
            1 => {
                aes::sub_bytes(&mut state);
                aes::shift_rows(&mut state);
                aes::add_round_key(&mut state, &round_key);
            }
            2 => {
                aes::inv_shift_rows(&mut state);
                aes::inv_sub_bytes(&mut state);
                aes::add_round_key(&mut state, &round_key);
                aes::inv_mix_columns(&mut state);
            }
            3 => {
                aes::inv_shift_rows(&mut state);
                aes::inv_sub_bytes(&mut state);
                aes::add_round_key(&mut state, &round_key);
            }
            other => return Err(fail("aesround", format!("bad round selector {other}"))),
        }
        let w = ctx.uregs.get_mut(st_ur);
        for i in 0..4 {
            w[i] = u32::from_le_bytes(state[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        Ok(())
    })
}

/// Builds `xorur`: 128-bit XOR of two user registers
/// (`ur_d ^= ur_s`) — the AddRoundKey datapath.
pub fn xorur() -> CustomInsnDef {
    CustomInsnDef::new(
        "xorur",
        1,
        AreaModel::new().xor_bits(128).gates(),
        |ctx, op| {
            let [d, s] = op.uregs[..] else {
                return Err(fail("xorur", "needs ur_d, ur_s"));
            };
            for i in 0..4 {
                let v = ctx.uregs.get(s)[i];
                ctx.uregs.get_mut(d)[i] ^= v;
            }
            Ok(())
        },
    )
}

/// The full multi-precision extension set at given resource levels
/// (`add_lanes` ∈ {2,4,8,16}, `mac_lanes` ∈ {1,2,4}), including the
/// shared `ldur`/`stur` plumbing.
pub fn mpn_extension_set(add_lanes: u32, mac_lanes: u32) -> ExtensionSet {
    let mut ext = ExtensionSet::new();
    ext.register(ldur());
    ext.register(stur());
    ext.register(add_k(add_lanes));
    ext.register(sub_k(add_lanes));
    ext.register(mac_k(mac_lanes));
    ext.register(msub_k(mac_lanes));
    ext
}

/// The symmetric-cipher extension set (DES + AES instructions).
pub fn cipher_extension_set() -> ExtensionSet {
    let mut ext = ExtensionSet::new();
    ext.register(ldur());
    ext.register(stur());
    ext.register(desperm());
    ext.register(desround());
    ext.register(aesround());
    ext.register(xorur());
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr32::asm::assemble;
    use xr32::config::CpuConfig;
    use xr32::cpu::Cpu;

    fn cpu_with(ext: ExtensionSet) -> Cpu {
        Cpu::with_extensions(CpuConfig::default(), ext)
    }

    #[test]
    fn ldur_stur_roundtrip_memory() {
        let p = assemble(
            "main:
                movi a0, 0x100
                movi a1, 0x200
                cust ldur ur0, a0, 4
                cust stur ur0, a1, 4
                halt",
        )
        .unwrap();
        let mut c = cpu_with(mpn_extension_set(4, 1));
        c.mem_mut().write_words(0x100, &[1, 2, 3, 4]).unwrap();
        c.run(&p).unwrap();
        assert_eq!(c.mem().read_words(0x200, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn add4_carries_across_lanes_and_flag() {
        let p = assemble(
            "main:
                movi a0, 0x100
                movi a1, 0x110
                movi a2, 0x120
                clc
                cust ldur ur0, a0, 4
                cust ldur ur1, a1, 4
                cust add4 ur2, ur0, ur1
                cust stur ur2, a2, 4
                halt",
        )
        .unwrap();
        let mut c = cpu_with(mpn_extension_set(4, 1));
        c.mem_mut()
            .write_words(0x100, &[u32::MAX, u32::MAX, u32::MAX, 1])
            .unwrap();
        c.mem_mut().write_words(0x110, &[1, 0, 0, 0]).unwrap();
        c.run(&p).unwrap();
        assert_eq!(c.mem().read_words(0x120, 4).unwrap(), vec![0, 0, 0, 2]);
    }

    #[test]
    fn mac2_matches_native_addmul() {
        let p = assemble(
            "main:
                movi a0, 0x100   ; r
                movi a1, 0x110   ; a
                movi a3, 0xdeadbeef
                movi a4, 7       ; carry in
                cust ldur ur0, a0, 2
                cust ldur ur1, a1, 2
                cust mac2 ur0, ur1, a3, a4
                cust stur ur0, a0, 2
                halt",
        )
        .unwrap();
        let mut c = cpu_with(mpn_extension_set(4, 2));
        c.mem_mut().write_words(0x100, &[5, 6]).unwrap();
        c.mem_mut()
            .write_words(0x110, &[0x12345678, 0x9abcdef0])
            .unwrap();
        c.run(&p).unwrap();
        // Native reference.
        let mut r = [5u32, 6];
        let carry_in = 7u64;
        let b = 0xdeadbeefu64;
        let mut carry = carry_in;
        for i in 0..2 {
            let t = [0x12345678u64, 0x9abcdef0][i] * b + r[i] as u64 + carry;
            r[i] = t as u32;
            carry = t >> 32;
        }
        assert_eq!(c.mem().read_words(0x100, 2).unwrap(), r.to_vec());
        assert_eq!(c.reg(4), carry as u32);
    }

    #[test]
    fn desround_matches_cipher_crate() {
        let des = ciphers::Des::new(0x1334_5779_9BBC_DFF1u64.to_be_bytes());
        let key = des.round_keys()[0];
        let block_after_ip = des::initial_permutation(0x0123_4567_89AB_CDEF);
        let (l, r) = ((block_after_ip >> 32) as u32, block_after_ip as u32);
        let p = assemble(
            "main:
                movi a0, 0x100
                cust ldur ur0, a0, 2
                cust desround ur0, a2, a3
                cust stur ur0, a0, 2
                halt",
        )
        .unwrap();
        let mut c = cpu_with(cipher_extension_set());
        c.mem_mut().write_words(0x100, &[r, l]).unwrap();
        c.set_reg(2, (key >> 32) as u32);
        c.set_reg(3, key as u32);
        c.run(&p).unwrap();
        let out = c.mem().read_words(0x100, 2).unwrap();
        let expect_r = l ^ des::feistel_f(r, key);
        assert_eq!(out[1], r, "new L = old R");
        assert_eq!(out[0], expect_r);
    }

    #[test]
    fn desperm_applies_ip_and_fp() {
        let p = assemble(
            "main:
                movi a0, 0x100
                cust ldur ur0, a0, 2
                cust desperm ur0, 0
                cust desperm ur0, 1
                cust stur ur0, a0, 2
                halt",
        )
        .unwrap();
        let mut c = cpu_with(cipher_extension_set());
        c.mem_mut()
            .write_words(0x100, &[0x89ABCDEF, 0x01234567])
            .unwrap();
        c.run(&p).unwrap();
        // FP(IP(x)) = x.
        assert_eq!(
            c.mem().read_words(0x100, 2).unwrap(),
            vec![0x89ABCDEF, 0x01234567]
        );
    }

    #[test]
    fn aesround_sequence_encrypts_like_reference() {
        // Run all ten AES-128 rounds via the custom instruction and
        // compare with the software implementation.
        let key: Vec<u8> = (0..16).collect();
        let aes_sw = ciphers::Aes::new(&key);
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8) * 0x11;
        }
        let mut expect = block;
        aes_sw.encrypt_block16(&mut expect);

        // Build asm: initial AddRoundKey via xor in software-side setup;
        // simpler: do AddRoundKey(0) on the host, then rounds 1..=10 on
        // the CPU.
        let mut state = block;
        ciphers::aes::add_round_key(&mut state, &aes_sw.round_keys()[0]);
        let mut c = cpu_with(cipher_extension_set());
        for i in 0..4 {
            let w = u32::from_le_bytes(state[4 * i..4 * i + 4].try_into().unwrap());
            c.mem_mut().store_u32(0x100 + 4 * i as u32, w).unwrap();
        }
        for (r, rk) in aes_sw.round_keys().iter().enumerate().skip(1) {
            c.mem_mut().write_words(0x200, rk).unwrap();
            let sel = if r == 10 { 1 } else { 0 };
            let src = format!(
                "main:
                    movi a0, 0x100
                    movi a1, 0x200
                    cust ldur ur0, a0, 4
                    cust ldur ur1, a1, 4
                    cust aesround ur0, ur1, {sel}
                    cust stur ur0, a0, 4
                    halt"
            );
            let p = assemble(&src).unwrap();
            c.run(&p).unwrap();
        }
        let mut got = [0u8; 16];
        for i in 0..4 {
            let w = c.mem().load_u32(0x100 + 4 * i as u32).unwrap();
            got[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn area_grows_with_resources() {
        assert!(add_k(16).area > add_k(2).area);
        assert!(mac_k(4).area > mac_k(1).area);
        assert!(mac_k(1).area > add_k(16).area, "multipliers dominate");
    }
}
