//! A self-contained SHA-256 implementation (FIPS 180-4).
//!
//! The offline crate set does not include a cryptographic hash, so the
//! reproduction carries its own — and every step of a replica's commit path
//! runs on it (transaction digests, Merkle batch roots, block digests, the
//! keyed-MAC signatures, the checkpoint chain, the audits), so its speed is
//! the host cost of a commit. The simulator's *modelled* digest cost comes
//! from `sharper_common::CostModel` and is independent of it.
//!
//! [`Sha256`] owns buffering and padding; the 64-round compression function
//! sits behind one seam, `Kernel::compress_blocks(state, whole_blocks)`, with
//! two implementations:
//!
//! * `portable` — the straightforward scalar loop; runs on every target;
//! * `sha-ni` — the x86-64 SHA extensions (`sha256rnds2` / `sha256msg1` /
//!   `sha256msg2`), several times faster per block.
//!
//! [`Sha256::update`] and [`Sha256::finalize`] pick the kernel once per call
//! from what the CPU reports at run time (`is_x86_feature_detected!`) and
//! hand it every whole block of that call. Nothing else selects a kernel: no
//! environment variable, Cargo feature or configuration field. Both kernels
//! compute the same function, so digests are bit-identical across hosts;
//! [`kernel`] reports which one this host runs, because host *timings* are
//! only comparable between runs that used the same kernel.

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes consumed so far.
    len: u64,
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(Kernel::detect(), data);
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(Kernel::detect())
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// [`update`](Self::update) on the given kernel.
    fn update_with(&mut self, kernel: Kernel, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                kernel.compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }

        // Every whole block goes to the kernel in one call, straight from the
        // input slice — no staging copy through the internal buffer.
        let (blocks, tail) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            kernel.compress_blocks(&mut self.state, blocks);
        }

        // Stash the tail.
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// [`finalize`](Self::finalize) on the given kernel.
    fn finalize_with(mut self, kernel: Kernel) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);

        // Padding: 0x80, zeros up to byte 56 of the last block, then the
        // 64-bit big-endian length — written in place, in one step. When the
        // buffered tail leaves no room for the length, the zero fill runs to
        // the end of this block and the length goes into one more.
        let mut block = self.buf;
        let used = self.buf_len;
        block[used] = 0x80;
        block[used + 1..].fill(0);
        if used + 1 > 56 {
            kernel.compress_blocks(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel.compress_blocks(&mut self.state, &block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which compression kernel this host's hashes run on: `"sha-ni"` when the
/// CPU reports the x86-64 SHA extensions, `"portable"` everywhere else.
/// Digests do not depend on it; host timings do.
pub fn kernel() -> &'static str {
    Kernel::detect().name()
}

/// A compression kernel: the code that folds whole 64-byte blocks into the
/// eight-word chaining state. Everything above this seam (buffering, padding,
/// the digest encoding) is shared.
#[derive(Clone, Copy)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::ShaNi),
}

impl Kernel {
    /// The fastest kernel this CPU can run.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = shani::ShaNi::detect() {
            return Kernel::ShaNi(hw);
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(_) => "sha-ni",
        }
    }

    /// Compresses `blocks` — a whole number of 64-byte blocks — into `state`.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "only whole blocks reach a kernel");
        match self {
            Kernel::Portable => {
                for block in blocks.chunks_exact(64) {
                    compress(state, block.try_into().expect("chunk is 64 bytes"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(hw) => hw.compress_blocks(state, blocks),
        }
    }
}

/// The portable kernel's block function: the 64 rounds of FIPS 180-4 §6.2.2,
/// written for clarity. It is also the reference the hardware kernel is
/// tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The x86-64 SHA-extensions kernel.
///
/// This is the one module of the workspace that contains `unsafe`: calling a
/// function compiled for CPU features the build target does not guarantee is
/// an operation safe Rust has no form for. The module keeps that single
/// obligation behind a proof value — a [`ShaNi`] can only be obtained from
/// [`ShaNi::detect`], which asks the CPU — so everything it exports is safe
/// to call. The kernel body itself is safe code: inside a
/// `#[target_feature]` function the register intrinsics are safe, and the
/// message and state are read and written through ordinary slices and
/// arrays, never through raw pointers.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// Proof that this CPU has every feature [`compress_blocks`] is compiled
    /// for. The field is private and [`ShaNi::detect`] is the only
    /// constructor, so holding one means the detection succeeded.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// Asks the CPU (std caches the `cpuid` answer after the first call).
        pub(super) fn detect() -> Option<Self> {
            (is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"))
            .then_some(Self(()))
        }

        /// Compresses `blocks` (whole 64-byte blocks) into `state`.
        pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `compress_blocks` requires the `sha`, `sse2`, `ssse3`
            // and `sse4.1` CPU features and nothing else. `self` exists, so
            // `ShaNi::detect` — its only constructor — found all four on the
            // CPU this process runs on.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Four message words, big-endian in `bytes`, as one vector (word `i` in
    /// lane `i`). The little-endian lanes become one unaligned vector load,
    /// the shuffle swaps the bytes of each lane.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_words(bytes: &[u8]) -> __m128i {
        let lane =
            |i: usize| i32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("four bytes"));
        let swap_each_lane = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(
            _mm_set_epi32(lane(3), lane(2), lane(1), lane(0)),
            swap_each_lane,
        )
    }

    /// Rounds `4g .. 4g + 4` over the message words `w` (`W[4g .. 4g + 4]`).
    /// `sha256rnds2` does two rounds on the low two lanes of its third
    /// operand and swaps the roles of the two state halves.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn four_rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let k = |i: usize| K[4 * g + i] as i32;
        let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// `W[t .. t + 4]` from the sixteen words before them, `w0` the oldest
    /// four: `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`. `msg1`
    /// adds the σ0 terms to `W[t-16 ..]`, the `alignr` supplies `W[t-7 ..]`,
    /// `msg2` adds the σ1 terms (two of which depend on its own output).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn next_words(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // The instructions want the state as two vectors, {a,b,e,f} and
        // {c,d,g,h}, most significant lane first.
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `w` holds the last sixteen schedule words, four per vector.
            // The first four groups of four rounds consume the message
            // itself; each later pass replaces every vector with the four
            // words that follow the sixteen held, oldest first.
            let mut w: [__m128i; 4] =
                std::array::from_fn(|i| load_words(&block[16 * i..16 * i + 16]));
            for (g, words) in w.into_iter().enumerate() {
                four_rounds(&mut abef, &mut cdgh, words, g);
            }
            for pass in 1..4 {
                w[0] = next_words(w[0], w[1], w[2], w[3]);
                four_rounds(&mut abef, &mut cdgh, w[0], 4 * pass);
                w[1] = next_words(w[1], w[2], w[3], w[0]);
                four_rounds(&mut abef, &mut cdgh, w[1], 4 * pass + 1);
                w[2] = next_words(w[2], w[3], w[0], w[1]);
                four_rounds(&mut abef, &mut cdgh, w[2], 4 * pass + 2);
                w[3] = next_words(w[3], w[0], w[1], w[2]);
                four_rounds(&mut abef, &mut cdgh, w[3], 4 * pass + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The byte-at-a-time padding `finalize` used to do, kept as the
    /// reference the one-step padding is compared against.
    fn finalize_bytewise(mut h: Sha256) -> [u8; 32] {
        fn pad(h: &mut Sha256, byte: u8) {
            h.buf[h.buf_len] = byte;
            h.buf_len += 1;
            if h.buf_len == 64 {
                compress(&mut h.state, &h.buf);
                h.buf_len = 0;
            }
        }
        let bit_len = h.len.wrapping_mul(8);
        pad(&mut h, 0x80);
        while h.buf_len != 56 {
            pad(&mut h, 0x00);
        }
        for b in bit_len.to_be_bytes() {
            pad(&mut h, b);
        }
        assert_eq!(h.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_step_padding_matches_bytewise_reference_for_every_length() {
        // 0..=200 covers every tail length twice over, including 55/56/63/64
        // where the length field does or does not fit the last block.
        let data: Vec<u8> = (0..=200u8).map(|b| b.wrapping_mul(31) ^ 0x5a).collect();
        for len in 0..=200usize {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.clone().finalize(), finalize_bytewise(h), "length {len}");
        }
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(data));
    }

    #[test]
    fn lengths_around_padding_edge_are_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for len in 0..200usize {
            let data = vec![0xabu8; len];
            assert!(seen.insert(Sha256::digest(&data)), "collision at len {len}");
        }
    }

    // ------------------------------------------------------------------
    // Each kernel driven directly, not through the run-time dispatch
    // ------------------------------------------------------------------

    /// The FIPS 180-4 example messages checked one by one above.
    const NIST: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];

    const SPLITS: [usize; 10] = [0, 1, 55, 56, 63, 64, 65, 127, 128, 1000];

    /// The hardware kernel, or `None` (saying so) on a CPU without it.
    fn hardware_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = shani::ShaNi::detect() {
            return Some(Kernel::ShaNi(hw));
        }
        println!("skipped: cpu lacks sha");
        None
    }

    /// `parts` hashed on `kernel` alone, one `update` per part.
    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(kernel, part);
        }
        h.finalize_with(kernel)
    }

    /// xorshift64 bytes: no structure a kernel bug could hide behind.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn passes_the_published_vectors(kernel: Kernel) {
        for (message, expected) in NIST {
            assert_eq!(hex(&digest_on(kernel, &[message])), expected);
        }
        let chunk = [b'a'; 1000];
        let million_a: Vec<&[u8]> = (0..1000).map(|_| chunk.as_slice()).collect();
        assert_eq!(
            hex(&digest_on(kernel, &million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn portable_kernel_passes_the_published_vectors() {
        passes_the_published_vectors(Kernel::Portable);
    }

    #[test]
    fn hardware_kernel_passes_the_published_vectors() {
        if let Some(hw) = hardware_kernel() {
            passes_the_published_vectors(hw);
        }
    }

    #[test]
    fn portable_kernel_is_indifferent_to_update_splits() {
        let data = pseudo_random(1024);
        let whole = digest_on(Kernel::Portable, &[&data]);
        for split in SPLITS {
            let (head, tail) = data.split_at(split);
            assert_eq!(
                digest_on(Kernel::Portable, &[head, tail]),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn hardware_kernel_agrees_with_the_portable_one() {
        let Some(hw) = hardware_kernel() else {
            return;
        };
        // Every tail length, one to five blocks per kernel call ...
        let data = pseudo_random(1024);
        for len in 0..=300usize {
            assert_eq!(
                digest_on(hw, &[&data[..len]]),
                digest_on(Kernel::Portable, &[&data[..len]]),
                "length {len}"
            );
        }
        // ... and multi-block updates entering with every kind of buffered
        // tail (a split at 1000 leaves one 15-block call).
        let whole = digest_on(Kernel::Portable, &[&data]);
        for split in SPLITS {
            let (head, tail) = data.split_at(split);
            assert_eq!(digest_on(hw, &[head, tail]), whole, "split at {split}");
        }
        // The raw seam: many blocks in one call equal one portable
        // compression per block, from an arbitrary chaining state.
        let mut by_hw = [0x0123_4567u32; 8];
        let mut by_block = by_hw;
        hw.compress_blocks(&mut by_hw, &data);
        for block in data.chunks_exact(64) {
            compress(&mut by_block, block.try_into().unwrap());
        }
        assert_eq!(by_hw, by_block);
    }

    #[test]
    fn reported_kernel_is_what_the_cpu_supports() {
        #[cfg(target_arch = "x86_64")]
        let has_sha = std::arch::is_x86_feature_detected!("sha");
        #[cfg(not(target_arch = "x86_64"))]
        let has_sha = false;
        // Shown by `cargo test -p sharper-crypto -- --nocapture`: the CI log's
        // record of which kernel the whole test run exercised.
        println!("sha256 kernel: {} (cpu sha: {has_sha})", kernel());
        assert_eq!(kernel(), if has_sha { "sha-ni" } else { "portable" });
        assert_eq!(hardware_kernel().is_some(), has_sha);
    }
}
