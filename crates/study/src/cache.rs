//! Content-keyed memoization of artifact values.
//!
//! A node's cache key is a Merkle-style stable hash: the context
//! fingerprint (every knob that can change a result), the node's name,
//! and the keys of its graph inputs. Two sessions that agree on the
//! fingerprint therefore share every artifact; perturbing any knob —
//! seed, trial count, DOE sizes, overlay budget, geometry — changes the
//! fingerprint and misses the cache.
//!
//! The thread-count knobs (`ExperimentContext::exec`, `McConfig::exec`)
//! are deliberately **excluded** from the fingerprint: the `mpvar-exec`
//! determinism contract guarantees bit-identical results for any worker
//! count, so a value computed at 1 thread is the value at 8 threads.
//! (The cache-equivalence tests in this crate pin that assumption.)

use mpvar_core::experiments::ExperimentContext;

use crate::graph::ArtifactId;

/// A stable 64-bit content key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_step(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a over a byte slice, from the standard offset basis. Shared
/// with the disk store's envelope checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(bytes, FNV_OFFSET)
}

/// Stable fingerprint of every result-affecting context knob.
///
/// Hashes the `Debug` rendering of the technology, cell geometry, read
/// configuration, DOE sizes, overlay budgets, and the Monte-Carlo trial
/// count and seed. `exec` knobs are excluded (see the module docs).
pub fn context_fingerprint(ctx: &ExperimentContext) -> u64 {
    let knobs = format!(
        "tech={:?};cell={:?};read={:?};sizes={:?};sweep={:?};ol={:?};trials={};seed={};yield={:?}",
        ctx.tech,
        ctx.cell,
        ctx.read_config,
        ctx.sizes,
        ctx.le3_overlay_sweep_nm,
        ctx.le3_overlay_nm,
        ctx.mc.trials,
        ctx.mc.seed,
        ctx.yield_settings,
    );
    fnv1a(knobs.as_bytes())
}

/// The content key of one graph node under one context fingerprint.
pub(crate) fn node_key(ctx_fingerprint: u64, id: ArtifactId, dep_keys: &[CacheKey]) -> CacheKey {
    let mut state = fnv1a(&ctx_fingerprint.to_le_bytes());
    state = fnv1a_step(id.name().as_bytes(), state);
    for dep in dep_keys {
        state = fnv1a_step(&dep.0.to_le_bytes(), state);
    }
    CacheKey(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_stable_and_knob_sensitive() {
        let a = ExperimentContext::quick().unwrap();
        let b = ExperimentContext::quick().unwrap();
        assert_eq!(context_fingerprint(&a), context_fingerprint(&b));

        let mut seed = ExperimentContext::quick().unwrap();
        seed.mc.seed += 1;
        assert_ne!(context_fingerprint(&a), context_fingerprint(&seed));

        let mut overlay = ExperimentContext::quick().unwrap();
        overlay.le3_overlay_nm = 5.0;
        assert_ne!(context_fingerprint(&a), context_fingerprint(&overlay));

        let mut ys = ExperimentContext::quick().unwrap();
        ys.yield_settings.seed += 1;
        assert_ne!(context_fingerprint(&a), context_fingerprint(&ys));
    }

    #[test]
    fn exec_knob_excluded() {
        let a = ExperimentContext::quick().unwrap();
        let mut b = ExperimentContext::quick().unwrap();
        b.exec = mpvar_core::ExecConfig::SERIAL;
        b.mc.exec = mpvar_core::ExecConfig::with_threads(4);
        assert_eq!(context_fingerprint(&a), context_fingerprint(&b));
    }

    #[test]
    fn node_keys_separate_nodes_and_inputs() {
        let fp = 42;
        let t1 = node_key(fp, ArtifactId::Table1, &[]);
        let f4 = node_key(fp, ArtifactId::Fig4, &[t1]);
        assert_ne!(t1, f4);
        let f4_other_input = node_key(fp, ArtifactId::Fig4, &[CacheKey(7)]);
        assert_ne!(f4, f4_other_input);
        assert_ne!(node_key(1, ArtifactId::Table1, &[]), t1);
    }
}
