//! Content-keyed memoization of artifact values.
//!
//! A node's cache key is a Merkle-style stable hash: the context knobs
//! its producer reads, the node's name, and the keys of its graph
//! inputs. Every row of the artifact table declares the knob groups
//! (`Knob`) its producer reads; technology and cell are hashed for
//! every row. So two sessions that agree on those knobs share the
//! artifact, whatever else differs: Fig. 4 reads no Monte-Carlo seed,
//! so a reseeded session reuses it, while Table IV reads the seed and
//! misses. A node's inputs carry their own knobs through their keys:
//! Fig. 4's key covers Table I's overlay budget through Table I's key.
//!
//! The declarations are a soundness contract: a row may list a group
//! it does not read (a needless miss), never leave out one it reads (a
//! wrong hit). `tests/knob_declarations.rs` pins them by perturbing
//! each group and comparing encoded values.
//!
//! The thread-count knobs (`ExperimentContext::exec`, `McConfig::exec`)
//! are deliberately **excluded** from every key: the `mpvar-exec`
//! determinism contract guarantees bit-identical results for any worker
//! count, so a value computed at 1 thread is the value at 8 threads.
//! (The cache-equivalence tests in this crate pin that assumption.)

use std::fmt::{Debug, Write as _};

use mpvar_core::experiments::ExperimentContext;

use crate::graph::{artifact_table, ArtifactId};

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

/// FNV-1a fed by `write!`: hashes a rendering without allocating it.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_step(s.as_bytes(), self.0);
        Ok(())
    }
}

/// FNV-1a of `value`'s `Debug` rendering.
fn debug_hash(value: &dyn Debug) -> u64 {
    let mut hasher = FnvWriter(FNV_OFFSET);
    write!(hasher, "{value:?}").expect("hashing never fails");
    hasher.0
}

/// A group of context knobs a producer may read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Knob {
    /// `read_config` (also through `analytical_model`).
    Read,
    /// `sizes` (also through `pinned_height`).
    Sizes,
    /// `le3_overlay_sweep_nm`.
    Sweep,
    /// `le3_overlay_nm` (also through `budget`).
    Overlay,
    /// `mc.trials` and `mc.seed`.
    Mc,
    /// `yield_settings`.
    Yield,
    /// `write_settings`.
    Write,
}

impl Knob {
    const ALL: [Knob; 7] = [
        Knob::Read,
        Knob::Sizes,
        Knob::Sweep,
        Knob::Overlay,
        Knob::Mc,
        Knob::Yield,
        Knob::Write,
    ];

    fn hash(self, ctx: &ExperimentContext) -> u64 {
        match self {
            Knob::Read => debug_hash(&ctx.read_config),
            Knob::Sizes => debug_hash(&ctx.sizes),
            Knob::Sweep => debug_hash(&ctx.le3_overlay_sweep_nm),
            Knob::Overlay => debug_hash(&ctx.le3_overlay_nm),
            Knob::Mc => debug_hash(&(ctx.mc.trials, ctx.mc.seed)),
            Knob::Yield => debug_hash(&ctx.yield_settings),
            Knob::Write => debug_hash(&ctx.write_settings),
        }
    }
}

macro_rules! artifact_reads {
    ($(
        $(#[$doc:meta])* $variant:ident, $tag:literal, $name:literal, $ty:ident,
        $producer:ident($($input:ident),*) [$($knob:ident),*] $($text:ident)?;
    )+) => {
        /// The knob groups the producer of `id` reads: its row's list.
        fn reads(id: ArtifactId) -> &'static [Knob] {
            match id {
                $(ArtifactId::$variant => &[$(Knob::$knob),*],)+
            }
        }
    };
}

artifact_table!(artifact_reads);

/// One context's knobs, rendered and hashed once per group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KnobHashes {
    tech_cell: u64,
    groups: [u64; Knob::ALL.len()],
}

impl KnobHashes {
    pub(crate) fn of(ctx: &ExperimentContext) -> Self {
        Self {
            tech_cell: debug_hash(&(&ctx.tech, &ctx.cell)),
            groups: Knob::ALL.map(|knob| knob.hash(ctx)),
        }
    }

    /// Technology and cell, then each listed group's hash tagged with
    /// its group.
    fn covering(&self, knobs: &[Knob]) -> u64 {
        let mut state = fnv1a(&self.tech_cell.to_le_bytes());
        for &knob in knobs {
            state = fnv1a_step(&[knob as u8], state);
            state = fnv1a_step(&self.groups[knob as usize].to_le_bytes(), state);
        }
        state
    }

    /// The fingerprint of every group: [`context_fingerprint`].
    pub(crate) fn fingerprint(&self) -> u64 {
        self.covering(&Knob::ALL)
    }

    /// Every node's key, indexed by `ArtifactId as usize`.
    pub(crate) fn node_keys(&self) -> [CacheKey; ArtifactId::ALL.len()] {
        let mut keys = [CacheKey(0); ArtifactId::ALL.len()];
        // Canonical order lists every node after its inputs.
        for id in ArtifactId::ALL {
            let dep_keys: Vec<CacheKey> = id
                .dependencies()
                .iter()
                .map(|&d| keys[d as usize])
                .collect();
            keys[id as usize] = node_key(self, id, &dep_keys);
        }
        keys
    }
}

/// Stable fingerprint of every result-affecting context knob.
///
/// Covers the technology, cell geometry, read configuration, DOE
/// sizes, overlay budgets, the Monte-Carlo trial count and seed, and
/// the yield and write settings. `exec` knobs are excluded (see the
/// module docs). It names a context as a whole; an artifact's cache
/// key covers only the groups its producer reads.
pub fn context_fingerprint(ctx: &ExperimentContext) -> u64 {
    KnobHashes::of(ctx).fingerprint()
}

/// The content key of one graph node: the knob groups its row
/// declares, its name, and its inputs' keys.
fn node_key(knobs: &KnobHashes, id: ArtifactId, dep_keys: &[CacheKey]) -> CacheKey {
    let mut state = fnv1a(&knobs.covering(reads(id)).to_le_bytes());
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

        let mut ws = ExperimentContext::quick().unwrap();
        ws.write_settings.seed += 1;
        assert_ne!(context_fingerprint(&a), context_fingerprint(&ws));
    }

    #[test]
    fn streamed_hash_is_the_hash_of_the_rendering() {
        let ctx = ExperimentContext::quick().unwrap();
        let rendered = format!("{:?}", ctx.read_config);
        assert_eq!(debug_hash(&ctx.read_config), fnv1a(rendered.as_bytes()));
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
    fn canonical_order_lists_inputs_first() {
        for (i, id) in ArtifactId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i);
            for &dep in id.dependencies() {
                assert!((dep as usize) < i, "{id} precedes its input {dep}");
            }
        }
    }

    #[test]
    fn node_keys_separate_nodes_and_inputs() {
        let knobs = KnobHashes::of(&ExperimentContext::quick().unwrap());
        let t1 = node_key(&knobs, ArtifactId::Table1, &[]);
        let f4 = node_key(&knobs, ArtifactId::Fig4, &[t1]);
        assert_ne!(t1, f4);
        let f4_other_input = node_key(&knobs, ArtifactId::Fig4, &[CacheKey(7)]);
        assert_ne!(f4, f4_other_input);
        let keys = knobs.node_keys();
        assert_eq!(keys[ArtifactId::Table1 as usize], t1);
        assert_eq!(keys[ArtifactId::Fig4 as usize], f4);
    }

    /// Whether `id` or one of its transitive inputs declares `knob`.
    fn covers(id: ArtifactId, knob: Knob) -> bool {
        reads(id).contains(&knob) || id.dependencies().iter().any(|&d| covers(d, knob))
    }

    #[test]
    fn a_key_covers_exactly_its_declared_groups() {
        let base = KnobHashes::of(&ExperimentContext::quick().unwrap());
        let base_keys = base.node_keys();
        for knob in Knob::ALL {
            let mut perturbed = base;
            perturbed.groups[knob as usize] ^= 1;
            let keys = perturbed.node_keys();
            for id in ArtifactId::ALL {
                let moved = keys[id as usize] != base_keys[id as usize];
                assert_eq!(moved, covers(id, knob), "{id} under {knob:?}");
            }
        }
        let mut other_cell = base;
        other_cell.tech_cell ^= 1;
        let keys = other_cell.node_keys();
        assert!(ArtifactId::ALL
            .into_iter()
            .all(|id| keys[id as usize] != base_keys[id as usize]));
    }
}
