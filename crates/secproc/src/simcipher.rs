//! Host-side runners for the symmetric-cipher kernels.
//!
//! Each runner owns an XR32 core with tables installed and exposes
//! block-level operations that execute on the simulator, verify against
//! the `ciphers` crate, and report cycle counts — the measurement
//! machinery behind Table 1's DES/3DES/AES rows.

use crate::insns;
use crate::kernels::{aes as kaes, des as kdes};
use ciphers::{aes::Aes, des::Des, sha1};
use kreg::kernels::sha as ksha;
use std::sync::OnceLock;
use xobs::trace::TraceSink;
use xr32::asm::{assemble, Program};
use xr32::config::CpuConfig;
use xr32::cpu::Cpu;
use xr32::ext::ExtensionSet;
use xr32::xcore::CallMemo;
use xr32::Reg;

/// Kernel flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain software kernels on the base core.
    Base,
    /// Custom-instruction kernels.
    Accelerated,
}

/// A DES engine running on the simulator.
pub struct SimDes {
    cpu: Cpu,
    program: Program,
    map: kdes::MemoryMap,
    reference: Des,
}

impl SimDes {
    /// Builds the engine, installing tables and the key schedule.
    pub fn new(config: CpuConfig, variant: Variant, key: [u8; 8]) -> Self {
        let map = kdes::MemoryMap::default();
        let reference = Des::new(key);
        let (src, ext) = match variant {
            Variant::Base => (kdes::base_source(&map), ExtensionSet::new()),
            Variant::Accelerated => (kdes::accel_source(&map), insns::cipher_extension_set()),
        };
        let program = assemble(&src).expect("bundled DES kernel must assemble");
        let mut cpu = Cpu::with_extensions(config, ext);
        cpu.set_fuel(u64::MAX);
        kdes::install(&mut cpu, &map, reference.round_keys());
        SimDes {
            cpu,
            program,
            map,
            reference,
        }
    }

    /// Encrypts (`decrypt = false`) or decrypts one 64-bit block on the
    /// simulator, returning `(output, cycles)`.
    pub fn crypt_block(&mut self, block: u64, decrypt: bool) -> (u64, u64) {
        self.crypt_block_traced(block, decrypt, None)
    }

    /// As [`Self::crypt_block`], streaming trace events into `sink` when
    /// one is attached (timing is identical either way).
    pub fn crypt_block_traced(
        &mut self,
        block: u64,
        decrypt: bool,
        sink: Option<&mut dyn TraceSink>,
    ) -> (u64, u64) {
        kdes::write_block(&mut self.cpu, &self.map, block);
        let summary = self
            .cpu
            .call_traced(
                &self.program,
                "des_block",
                &[self.map.block, self.map.key_schedule, decrypt as u32],
                sink,
            )
            .expect("des kernel runs");
        let out = kdes::read_block(&self.cpu, &self.map);
        let expect = if decrypt {
            self.reference.decrypt_u64(block)
        } else {
            self.reference.encrypt_u64(block)
        };
        assert_eq!(out, expect, "DES kernel diverged from software reference");
        (out, summary.cycles)
    }

    /// Average cycles per byte over `blocks` encryptions (cache-warm
    /// steady state: the first block is excluded).
    pub fn cycles_per_byte(&mut self, blocks: usize) -> f64 {
        assert!(blocks >= 2);
        let mut x = 0x0123_4567_89ab_cdefu64;
        self.crypt_block(x, false); // warm caches
        let mut total = 0u64;
        for _ in 0..blocks - 1 {
            let (out, cycles) = self.crypt_block(x, false);
            x = out;
            total += cycles;
        }
        total as f64 / ((blocks - 1) as f64 * 8.0)
    }
}

/// An AES-128 engine running on the simulator.
pub struct SimAes {
    cpu: Cpu,
    program: Program,
    map: kaes::MemoryMap,
    reference: Aes,
}

impl SimAes {
    /// Builds the engine with an AES-128 key.
    pub fn new(config: CpuConfig, variant: Variant, key: &[u8; 16]) -> Self {
        let map = kaes::MemoryMap::default();
        let reference = Aes::new_128(key);
        let (src, ext) = match variant {
            Variant::Base => (kaes::base_source(&map), ExtensionSet::new()),
            Variant::Accelerated => (kaes::accel_source(&map), insns::cipher_extension_set()),
        };
        let program = assemble(&src).expect("bundled AES kernel must assemble");
        let mut cpu = Cpu::with_extensions(config, ext);
        cpu.set_fuel(u64::MAX);
        kaes::install(&mut cpu, &map, &reference);
        SimAes {
            cpu,
            program,
            map,
            reference,
        }
    }

    /// Encrypts one block on the simulator, returning
    /// `(ciphertext, cycles)`.
    pub fn encrypt_block(&mut self, block: &[u8; 16]) -> ([u8; 16], u64) {
        self.encrypt_block_traced(block, None)
    }

    /// As [`Self::encrypt_block`], streaming trace events into `sink`
    /// when one is attached (timing is identical either way).
    pub fn encrypt_block_traced(
        &mut self,
        block: &[u8; 16],
        sink: Option<&mut dyn TraceSink>,
    ) -> ([u8; 16], u64) {
        kaes::write_state(&mut self.cpu, &self.map, block);
        let summary = self
            .cpu
            .call_traced(&self.program, "aes_block", &[], sink)
            .expect("aes kernel runs");
        let out = kaes::read_state(&self.cpu, &self.map);
        let mut expect = *block;
        self.reference.encrypt_block16(&mut expect);
        assert_eq!(out, expect, "AES kernel diverged from software reference");
        (out, summary.cycles)
    }

    /// Average cycles per byte over `blocks` encryptions (steady
    /// state).
    pub fn cycles_per_byte(&mut self, blocks: usize) -> f64 {
        assert!(blocks >= 2);
        let mut block = *b"0123456789abcdef";
        self.encrypt_block(&block); // warm caches
        let mut total = 0u64;
        for _ in 0..blocks - 1 {
            let (out, cycles) = self.encrypt_block(&block);
            block = out;
            total += cycles;
        }
        total as f64 / ((blocks - 1) as f64 * 16.0)
    }
}

/// A SHA-1 compression engine running on the simulator (base kernel
/// only — hashing is the platform's unaccelerated "misc" work). The
/// kernel is constant-time: its core's call memo keys it on `sp` and
/// `ra`, its `;! entry` inputs, and replays warm compressions.
pub struct SimSha1 {
    cpu: Cpu,
    program: &'static Program,
    map: ksha::MemoryMap,
}

/// The SHA-1 kernel, assembled on first use and shared by every engine.
static SHA1_KERNEL: OnceLock<Program> = OnceLock::new();

impl SimSha1 {
    /// Builds the engine.
    pub fn new(config: CpuConfig) -> Self {
        let map = ksha::MemoryMap::default();
        let program =
            SHA1_KERNEL.get_or_init(|| assemble(&ksha::source(&map)).expect("SHA-1 assembles"));
        let entry = program.label(kreg::id::SHA1.name()).expect("sha1 entry");
        let mut memo = CallMemo::new();
        memo.declare_computed(program, entry, &[Reg::SP, Reg::RA], &[]);
        let mut cpu = Cpu::new(config);
        cpu.set_fuel(u64::MAX);
        cpu.set_call_memo(Some(memo));
        SimSha1 { cpu, program, map }
    }

    /// Runs one compression on the simulator, verified against the
    /// software compression function, returning `(new_state, cycles)`.
    /// A call the memo replayed gets its memory outputs from the host.
    pub fn compress(&mut self, state: [u32; 5], block: &[u8; 64]) -> ([u32; 5], u64) {
        ksha::write_state(&mut self.cpu, &self.map, &state);
        ksha::write_block(&mut self.cpu, &self.map, block);
        let summary = self
            .cpu
            .call(self.program, kreg::id::SHA1.name(), &[])
            .expect("sha1 kernel runs");
        let mut expect = state;
        sha1::compress(&mut expect, block);
        if summary.skipped {
            ksha::write_state(&mut self.cpu, &self.map, &expect);
            // The expanded schedule: the block's words, then
            // `w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16])`.
            let mem = self.cpu.mem_mut();
            let mut w = mem.read_words(self.map.block, 16).expect("in memory");
            for i in 16..80 {
                w.push((w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1));
            }
            mem.write_words(self.map.sched, &w).expect("in memory");
        }
        let out = ksha::read_state(&self.cpu, &self.map);
        assert_eq!(out, expect, "SHA-1 kernel diverged from software reference");
        (out, summary.cycles)
    }

    /// Measures one characterization stimulus: chains `blocks`
    /// compressions over splitmix-generated state and message blocks
    /// and returns the total cycle count. This is the phase-1
    /// measurement harness for the registered SHA-1 kernel (the
    /// block-memory counterpart of `IssMpn::measure32`).
    pub fn measure_blocks(&mut self, blocks: usize, seed: u64) -> f64 {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 32) as u32
        };
        let mut state = [next(), next(), next(), next(), next()];
        let mut total = 0u64;
        for _ in 0..blocks {
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(4) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let (s, cycles) = self.compress(state, &block);
            state = s;
            total += cycles;
        }
        total as f64
    }

    /// Average cycles per byte over `count` chained compressions
    /// (steady state: the first is excluded). The kernel's timing does
    /// not depend on the data it hashes, so any stimulus serves.
    pub fn cycles_per_byte(&mut self, count: usize) -> f64 {
        assert!(count >= 2);
        self.measure_blocks(1, 0); // warm caches
        self.measure_blocks(count - 1, 0) / ((count - 1) as f64 * 64.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimSha1 {
        /// The engine's core, to detach its memo or read its statistics.
        pub(crate) fn core(&mut self) -> &mut Cpu {
            &mut self.cpu
        }
    }

    #[test]
    fn des_base_kernel_encrypts_correctly() {
        let mut sim = SimDes::new(
            CpuConfig::default(),
            Variant::Base,
            0x1334_5779_9BBC_DFF1u64.to_be_bytes(),
        );
        // verify-mode asserts equality internally; also pin the classic
        // vector explicitly.
        let (ct, cycles) = sim.crypt_block(0x0123_4567_89AB_CDEF, false);
        assert_eq!(ct, 0x85E8_1354_0F0A_B405);
        assert!(cycles > 500, "DES block should take real work: {cycles}");
        let (pt, _) = sim.crypt_block(ct, true);
        assert_eq!(pt, 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn des_accel_kernel_encrypts_correctly() {
        let mut sim = SimDes::new(
            CpuConfig::default(),
            Variant::Accelerated,
            0x1334_5779_9BBC_DFF1u64.to_be_bytes(),
        );
        let (ct, _) = sim.crypt_block(0x0123_4567_89AB_CDEF, false); // cold caches
        assert_eq!(ct, 0x85E8_1354_0F0A_B405);
        let (_, cycles) = sim.crypt_block(0x0123_4567_89AB_CDEF, false); // warm
        assert!(
            cycles < 400,
            "accelerated DES should be fast when warm: {cycles}"
        );
        let (pt, _) = sim.crypt_block(ct, true);
        assert_eq!(pt, 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn des_speedup_is_large() {
        let key = *b"deskey!!";
        let mut base = SimDes::new(CpuConfig::default(), Variant::Base, key);
        let mut fast = SimDes::new(CpuConfig::default(), Variant::Accelerated, key);
        let b = base.cycles_per_byte(6);
        let f = fast.cycles_per_byte(6);
        let speedup = b / f;
        assert!(
            speedup > 5.0,
            "expected a large DES speedup, got {speedup:.1} ({b:.1} vs {f:.1} c/B)"
        );
    }

    #[test]
    fn aes_base_kernel_matches_fips() {
        let key: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let mut sim = SimAes::new(CpuConfig::default(), Variant::Base, &key);
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8) * 0x11;
        }
        let (ct, cycles) = sim.encrypt_block(&block);
        assert_eq!(ct[0], 0x69);
        assert_eq!(ct[15], 0x5a);
        assert!(cycles > 1000, "AES base should take real work: {cycles}");
    }

    #[test]
    fn aes_accel_kernel_matches_fips() {
        let key: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let mut sim = SimAes::new(CpuConfig::default(), Variant::Accelerated, &key);
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8) * 0x11;
        }
        let (ct, _) = sim.encrypt_block(&block); // cold caches
        assert_eq!(ct[0], 0x69);
        let (_, cycles) = sim.encrypt_block(&block); // warm
        assert!(
            cycles < 300,
            "accelerated AES should be fast when warm: {cycles}"
        );
    }

    #[test]
    fn sha1_kernel_compresses_correctly() {
        let mut sim = SimSha1::new(CpuConfig::default());
        // One "abc"-style padded block.
        let mut block = [0u8; 64];
        block[0] = b'a';
        block[1] = b'b';
        block[2] = b'c';
        block[3] = 0x80;
        block[63] = 24; // bit length
        let init = [
            0x6745_2301,
            0xefcd_ab89,
            0x98ba_dcfe,
            0x1032_5476,
            0xc3d2_e1f0,
        ];
        let (state, cycles) = sim.compress(init, &block);
        assert_eq!(state[0], 0xa999_3e36, "SHA-1(abc) first word");
        assert!(cycles > 800);
    }

    /// Chained compressions on a memo-armed engine and on a plain core
    /// agree after every call: cycles, the state, block and schedule
    /// regions, and the registers, whose read re-executes a replay.
    #[test]
    fn a_memoized_sha1_engine_equals_the_plain_model_call_by_call() {
        let mut memo = SimSha1::new(CpuConfig::default());
        let mut plain = SimSha1::new(CpuConfig::default());
        plain.core().set_call_memo(None);
        let map = memo.map;
        let regions = |sim: &mut SimSha1| {
            let mem = sim.core().mem();
            [(map.state, 5), (map.block, 16), (map.sched, 80)]
                .map(|(at, words)| mem.read_words(at, words).expect("in memory"))
        };
        let mut state = [1, 2, 3, 4, 5];
        for i in 0..64u32 {
            let block: [u8; 64] =
                std::array::from_fn(|j| (i * 64 + j as u32).wrapping_mul(0x9e) as u8);
            let (out, cycles) = memo.compress(state, &block);
            assert_eq!(plain.compress(state, &block), (out, cycles), "call {i}");
            assert_eq!(regions(&mut memo), regions(&mut plain), "call {i}");
            assert_eq!(memo.core().regs(), plain.core().regs(), "call {i}");
            state = out;
        }
        let stats = memo.core().call_memo().expect("memo attached").stats();
        // The cold first call misses and the second records.
        assert_eq!((stats.calls, stats.replays), (64, 62), "{stats:?}");
        assert!(stats.reexecuted_insns > 0, "{stats:?}");
    }
}
