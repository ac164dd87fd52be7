//! A self-contained SHA-256 implementation (FIPS 180-4).
//!
//! The offline crate set does not include a cryptographic hash, so the
//! reproduction carries its own. The implementation is the straightforward
//! 64-round compression function; it favours clarity over speed but still
//! hashes well over 100 MB/s, far more than the simulator needs (the
//! simulator charges digest cost through the calibrated cost model anyway).

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
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks are compressed straight from the input slice — no
        // staging copy through the internal buffer.
        let mut blocks = input.chunks_exact(64);
        for block in blocks.by_ref() {
            self.compress(block.try_into().expect("chunk is 64 bytes"));
        }
        input = blocks.remainder();

        // Stash the tail.
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
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
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; 64]) {
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

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

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

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
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
                let block = h.buf;
                h.compress(&block);
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
}
