//! Binary model checkpoints: the crate's one model format, a
//! deterministic, versioned serialization of an [`Mlp`]. The DQN agent
//! checkpoint embeds it, and `resemble-serve` uses that to park and
//! warm-resume session controllers.
//!
//! The format is **bit-exact by construction**: every `f32` parameter is
//! written as its IEEE-754 bit pattern in little-endian byte order, so a
//! save → load round trip reproduces the network exactly (same Q-values
//! to the bit) on any platform. The header is versioned and
//! self-describing so future layout changes can be detected instead of
//! misread, and the loader bounds every declared size before it
//! allocates, so a corrupt header is an error, not an unbounded
//! allocation.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"RSMBMLP1"
//! version          u32       1
//! hidden_act       u8        0=identity 1=relu 2=tanh 3=sigmoid
//! reserved         3 bytes   zero
//! n_sizes          u32       number of layer sizes (>= 2)
//! sizes            u32 * n   layer widths, input first
//! param_count      u64       must equal the architecture's count
//! params           u32 * c   f32 bit patterns, [`Mlp::flat_params`] order
//! ```

use crate::activation::Activation;
use crate::mlp::Mlp;
use std::io::{self, Read, Write};

/// Magic bytes opening every binary MLP checkpoint.
pub const MLP_MAGIC: [u8; 8] = *b"RSMBMLP1";

/// Current format version written by [`save_mlp_binary`].
pub const MLP_VERSION: u32 = 1;

/// Widest layer accepted when loading (sanity bound against corrupt
/// headers allocating absurd networks).
const MAX_LAYER_WIDTH: u32 = 1 << 20;

/// Most layer sizes accepted when loading.
const MAX_SIZES: u32 = 64;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn act_code(a: Activation) -> u8 {
    match a {
        Activation::Identity => 0,
        Activation::Relu => 1,
        Activation::Tanh => 2,
        Activation::Sigmoid => 3,
    }
}

fn act_from_code(code: u8) -> Option<Activation> {
    Some(match code {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        3 => Activation::Sigmoid,
        _ => return None,
    })
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Write `net` as a binary checkpoint. The byte stream is a pure function
/// of the network's architecture, hidden activation, and parameter bits —
/// two bit-identical networks serialize to identical bytes.
pub fn save_mlp_binary<W: Write>(w: &mut W, net: &Mlp) -> io::Result<()> {
    w.write_all(&MLP_MAGIC)?;
    w.write_all(&MLP_VERSION.to_le_bytes())?;
    w.write_all(&[act_code(net.hidden_activation()), 0, 0, 0])?;
    let sizes = net.sizes();
    let n = u32::try_from(sizes.len()).map_err(|_| bad("too many layers"))?;
    w.write_all(&n.to_le_bytes())?;
    for &s in sizes {
        let s = u32::try_from(s).map_err(|_| bad("layer too wide"))?;
        w.write_all(&s.to_le_bytes())?;
    }
    let params = net.flat_params();
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for p in params {
        w.write_all(&p.to_bits().to_le_bytes())?;
    }
    Ok(())
}

/// Read a network written by [`save_mlp_binary`], validating the header
/// against the declared architecture; a stream shorter than its header
/// declares is an error. The loaded network's parameters are
/// bit-identical to the saved ones.
pub fn load_mlp_binary<R: Read>(r: &mut R) -> io::Result<Mlp> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MLP_MAGIC {
        return Err(bad("not a ReSemble MLP checkpoint (bad magic)"));
    }
    let version = read_u32(r)?;
    if version != MLP_VERSION {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    let mut actb = [0u8; 4];
    r.read_exact(&mut actb)?;
    let act = act_from_code(actb[0]).ok_or_else(|| bad("unknown activation code"))?;
    let n_sizes = read_u32(r)?;
    if !(2..=MAX_SIZES).contains(&n_sizes) {
        return Err(bad(format!("implausible layer count {n_sizes}")));
    }
    let mut sizes = Vec::with_capacity(n_sizes as usize);
    for _ in 0..n_sizes {
        let s = read_u32(r)?;
        if s == 0 || s > MAX_LAYER_WIDTH {
            return Err(bad(format!("implausible layer width {s}")));
        }
        sizes.push(s as usize);
    }
    let expect: usize = sizes
        .windows(2)
        .map(|p| p[0] * p[1] + p[1]) // weights + biases per layer
        .sum();
    let param_count = read_u64(r)?;
    if param_count != expect as u64 {
        return Err(bad(format!(
            "parameter count {param_count} does not match architecture ({expect})"
        )));
    }
    // Fixed-size chunked reads and no up-front reservation from the
    // header's count: the vector grows only as parameters arrive, so a
    // short stream fails at end-of-file instead of aborting on a
    // terabyte allocation.
    const CHUNK: usize = 1024; // parameters per read
    let mut params = Vec::new();
    let mut buf = [0u8; 4 * CHUNK];
    let mut left = expect;
    while left > 0 {
        let n = left.min(CHUNK);
        let bytes = &mut buf[..4 * n];
        r.read_exact(bytes)?;
        params.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
        );
        left -= n;
    }
    let mut net = Mlp::new(&sizes, act, 0);
    net.load_flat(&params);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(net: &Mlp) -> Vec<u32> {
        net.flat_params().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let net = Mlp::new(&[4, 100, 5], Activation::Relu, 42);
        let mut buf = Vec::new();
        save_mlp_binary(&mut buf, &net).expect("saves");
        let loaded = load_mlp_binary(&mut buf.as_slice()).expect("loads");
        assert_eq!(loaded.sizes(), net.sizes());
        assert_eq!(loaded.hidden_activation(), Activation::Relu);
        assert_eq!(bits(&loaded), bits(&net), "parameter bits diverged");
        // Q-values bit-identical through a forward pass too.
        let x = [0.1f32, -0.9, 0.3, 2.5];
        let a: Vec<u32> = net.predict(&x).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = loaded.predict(&x).iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn serialization_is_deterministic() {
        let net = Mlp::new(&[3, 17, 4], Activation::Tanh, 7);
        let mut a = Vec::new();
        let mut b = Vec::new();
        save_mlp_binary(&mut a, &net).expect("saves");
        save_mlp_binary(&mut b, &net).expect("saves");
        assert_eq!(a, b, "same net must serialize to identical bytes");
        let clone = net.clone();
        let mut c = Vec::new();
        save_mlp_binary(&mut c, &clone).expect("saves");
        assert_eq!(a, c);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let net = Mlp::new(&[2, 8, 3], Activation::Relu, 1);
        let mut buf = Vec::new();
        save_mlp_binary(&mut buf, &net).expect("saves");

        let mut corrupt = buf.clone();
        corrupt[0] ^= 0xFF;
        assert!(load_mlp_binary(&mut corrupt.as_slice()).is_err(), "magic");

        let mut vers = buf.clone();
        vers[8] = 99;
        assert!(load_mlp_binary(&mut vers.as_slice()).is_err(), "version");

        let truncated = &buf[..buf.len() - 3];
        assert!(
            load_mlp_binary(&mut &truncated[..]).is_err(),
            "truncated stream"
        );

        // A 36-byte file declaring two 2^20-wide layers claims ~2^40
        // parameters (4 TiB) with none behind it: the short stream must
        // error, not make the loader reserve the declared count.
        let mut huge = buf[..16].to_vec();
        huge.extend_from_slice(&2u32.to_le_bytes());
        huge.extend_from_slice(&(1u32 << 20).to_le_bytes());
        huge.extend_from_slice(&(1u32 << 20).to_le_bytes());
        huge.extend_from_slice(&((1u64 << 40) + (1u64 << 20)).to_le_bytes());
        assert_eq!(huge.len(), 36);
        assert!(
            load_mlp_binary(&mut huge.as_slice()).is_err(),
            "huge declared architecture"
        );
    }

    #[test]
    fn rejects_mismatched_param_count() {
        let net = Mlp::new(&[2, 4, 2], Activation::Relu, 3);
        let mut buf = Vec::new();
        save_mlp_binary(&mut buf, &net).expect("saves");
        // param_count field sits after magic(8)+version(4)+act(4)+n(4)+sizes(12).
        let off = 8 + 4 + 4 + 4 + 12;
        buf[off..off + 8].copy_from_slice(&999u64.to_le_bytes());
        assert!(load_mlp_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn preserves_exact_float_bit_patterns() {
        let mut net = Mlp::new(&[2, 2, 2], Activation::Relu, 9);
        // Force awkward values: -0.0, subnormal, NaN payload.
        let mut p = net.flat_params();
        p[0] = -0.0;
        p[1] = f32::from_bits(1); // smallest subnormal
        p[2] = f32::from_bits(0x7FC0_1234); // NaN with payload
        net.load_flat(&p);
        let mut buf = Vec::new();
        save_mlp_binary(&mut buf, &net).expect("saves");
        let loaded = load_mlp_binary(&mut buf.as_slice()).expect("loads");
        assert_eq!(bits(&loaded), bits(&net));
    }
}
