//! Content-hashed model registry: compile once, reuse across a batch.
//!
//! The ensemble workload ("millions of users" = parameter sweeps and
//! Monte-Carlo batches over the *same* model) makes compilation a shared,
//! cacheable prefix: N scenarios differ only in their parameter vectors,
//! never in the compiled artifact. [`ModelRegistry`] maps a
//! [`ModelKey`] — an FNV-1a hash of the model source (salted with a
//! registry format version so a pipeline change invalidates old keys) —
//! to an immutable [`CompiledModel`] holding the causalized internal
//! form and the in-thread one-cluster graph every scenario runs.
//!
//! Every [`CompiledModel`] also exposes a *structural identity*: a hash
//! over the executed graph's bytecode instructions, task dependence
//! edges, and output slots. The ensemble checkpoint format stores this
//! identity so `omc sweep --resume` can refuse to splice results
//! produced by a different compilation of a same-named model.

use crate::generator::{CodeGenerator, ParallelProgram, Placement};
use crate::sched::Schedule;
use crate::task::TaskGraph;
use om_ir::OdeIr;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bump when the compile pipeline changes in a way that invalidates
/// previously recorded keys/identities (checkpoints store both).
/// v2: array-loop tasks (trip counts + patch tables enter the identity).
const REGISTRY_FORMAT_VERSION: u64 = 2;

/// 64-bit FNV-1a. Tiny, dependency-free, stable across platforms and
/// runs — exactly what an on-disk checkpoint needs (`DefaultHasher`
/// explicitly is not stable across releases).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content hash of a model source text (the registry lookup key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelKey(pub u64);

impl ModelKey {
    /// Key of a source text: FNV-1a over the bytes, salted with the
    /// registry format version.
    pub fn of_source(source: &str) -> ModelKey {
        let mut h = fnv1a64(source.as_bytes());
        h ^= REGISTRY_FORMAT_VERSION.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ModelKey(h)
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A registry failure: the model does not compile.
#[derive(Clone, Debug)]
pub struct RegistryError {
    pub message: String,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model registry: {}", self.message)
    }
}

impl std::error::Error for RegistryError {}

/// An immutable compiled model: source key, causalized IR, the
/// in-thread placement and structural identity.
pub struct CompiledModel {
    key: ModelKey,
    identity: u64,
    ir: OdeIr,
    generator: CodeGenerator,
    /// The one-cluster placement every scenario executes.
    serial: Placement,
    /// The equation-level program, compiled only when asked for.
    program: OnceLock<ParallelProgram>,
}

impl CompiledModel {
    /// Compile `source` through the full pipeline (flatten → causalize →
    /// verify → place on one worker) with the given generator options.
    pub fn compile_with(
        source: &str,
        generator: &CodeGenerator,
    ) -> Result<CompiledModel, RegistryError> {
        let flat = om_lang::compile(source).map_err(|e| RegistryError {
            message: e.to_string(),
        })?;
        let ir = om_ir::causalize(&flat).map_err(|e| RegistryError {
            message: e.to_string(),
        })?;
        om_ir::verify_compilable(&ir).map_err(|e| RegistryError {
            message: e.to_string(),
        })?;
        let serial = generator.place(&ir, &generator.tasks(&ir), 1);
        Ok(CompiledModel {
            key: ModelKey::of_source(source),
            identity: graph_identity(&serial.graph),
            ir,
            generator: generator.clone(),
            serial,
            program: OnceLock::new(),
        })
    }

    /// [`CompiledModel::compile_with`] under default generator options.
    pub fn compile(source: &str) -> Result<CompiledModel, RegistryError> {
        CompiledModel::compile_with(source, &CodeGenerator::default())
    }

    /// The source content key.
    pub fn key(&self) -> ModelKey {
        self.key
    }

    /// Structural identity of the executed graph: a stable hash over
    /// bytecode instructions, task writes/reads, and dependence edges of
    /// [`CompiledModel::graph`]. Two sources compiling to the same graph
    /// share an identity; the same source under a different pipeline
    /// does not.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The causalized internal form.
    pub fn ir(&self) -> &OdeIr {
        &self.ir
    }

    /// The graph every scenario runs: one cluster with global CSE (plus
    /// any loop or shared-slot tasks).
    pub fn graph(&self) -> &TaskGraph {
        &self.serial.graph
    }

    /// The equation-level program (symbolic tasks + one task per
    /// equation group), compiled on first use: the emitters' and the
    /// experiments' view, not what scenarios execute.
    pub fn program(&self) -> &ParallelProgram {
        self.program
            .get_or_init(|| self.generator.generate(&self.ir))
    }

    /// ODE dimension.
    pub fn dim(&self) -> usize {
        self.ir.dim()
    }

    /// Approximate warm-cache footprint of this artifact, in abstract
    /// units (bytecode words + constants + patch-table slots + state
    /// dims). Not bytes — a stable, platform-independent measure the
    /// registry's eviction accounting and `omc serve` stats can report
    /// without lying about allocator overhead.
    pub fn footprint_units(&self) -> u64 {
        let mut units = self.ir.dim() as u64;
        for task in &self.graph().tasks {
            units += task.program.instrs.len() as u64;
            units += task.program.consts.len() as u64;
            if let Some(li) = &task.loop_info {
                units += li.count as u64 * li.patches.len().max(1) as u64;
            }
        }
        units
    }

    /// The equation-level static schedule for `m` workers (the one a
    /// placement on `m` workers clusters), from the costs the in-thread
    /// placement kept: nothing is compiled.
    pub fn schedule(&self, m: usize) -> Schedule {
        self.serial.costs.schedule(m)
    }
}

impl fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledModel")
            .field("key", &self.key)
            .field("identity", &format_args!("{:016x}", self.identity))
            .field("model", &self.ir.name)
            .field("dim", &self.ir.dim())
            .field("tasks", &self.graph().tasks.len())
            .finish()
    }
}

/// Stable structural hash of a compiled task graph (bytecode + task
/// graph identity). Uses the `Debug` rendering of instructions — stable
/// within this crate, and any rendering change is a pipeline change that
/// *should* alter identities.
pub fn graph_identity(graph: &TaskGraph) -> u64 {
    let mut text = String::new();
    text.push_str(&format!(
        "v{REGISTRY_FORMAT_VERSION};dim={};shared={};",
        graph.dim, graph.n_shared
    ));
    for task in &graph.tasks {
        text.push_str(&format!(
            "task{}:{:?}:{:?}:{:?}:{:?}:{:?};",
            task.id,
            task.program.consts,
            task.program.instrs,
            task.writes,
            task.reads_states,
            task.reads_shared
        ));
        // Array-loop tasks: the trip count and per-iteration slot patch
        // tables are part of the compiled artifact. Two models differing
        // only in an array dimension produce different patch tables, so
        // their identities never collide.
        if let Some(li) = &task.loop_info {
            text.push_str(&format!("loop:{}:{:?};", li.count, li.patches));
        }
    }
    for (i, deps) in graph.deps.iter().enumerate() {
        text.push_str(&format!("dep{i}:{deps:?};"));
    }
    fnv1a64(text.as_bytes())
}

/// One warm registry entry: the shared artifact plus the bookkeeping
/// the eviction policy needs (recency tick + footprint units).
struct WarmEntry {
    model: Arc<CompiledModel>,
    last_used: u64,
    footprint: u64,
}

/// A process-wide (or per-batch) cache of compiled models.
///
/// Batch drivers (`omc sweep`) use an unbounded registry: the batch
/// names a fixed model set and the process exits when it is done. A
/// *resident* process (`omc serve`) must not grow without bound under
/// adversarial traffic, so it constructs the registry with a capacity:
/// inserting past it evicts the least-recently-used entry. Eviction
/// only drops the registry's `Arc` — in-flight requests holding a clone
/// keep computing on the old artifact; it is freed when the last clone
/// drops.
#[derive(Default)]
pub struct ModelRegistry {
    models: Mutex<HashMap<ModelKey, WarmEntry>>,
    /// Maximum warm entries (0 = unbounded).
    capacity: usize,
    /// Monotonic recency clock for LRU (bumped on every touch).
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModelRegistry {
    /// Unbounded registry (the batch-driver configuration).
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registry holding at most `capacity` warm models, evicting the
    /// least recently used past that. `capacity == 0` means unbounded.
    pub fn with_capacity(capacity: usize) -> ModelRegistry {
        ModelRegistry {
            capacity,
            ..ModelRegistry::default()
        }
    }

    /// Look up `source` by content hash, compiling (once) on miss.
    /// Concurrent callers of the same source race to compile but the
    /// first registered artifact wins, so every caller shares one `Arc`.
    pub fn get_or_compile(&self, source: &str) -> Result<Arc<CompiledModel>, RegistryError> {
        let key = ModelKey::of_source(source);
        if let Some(found) = self.touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(CompiledModel::compile(source)?);
        let footprint = compiled.footprint_units();
        let mut models = self.lock();
        let entry = models.entry(key).or_insert(WarmEntry {
            model: compiled,
            last_used: self.clock.fetch_add(1, Ordering::Relaxed),
            footprint,
        });
        let shared = entry.model.clone();
        self.evict_past_capacity(&mut models, key);
        Ok(shared)
    }

    /// Look up an already-compiled model by its content key (the `omc
    /// serve` fast path: clients that learned a key from an earlier
    /// response skip shipping the source again). Counts as a hit/miss
    /// like `get_or_compile`, but never compiles.
    pub fn get_by_key(&self, key: ModelKey) -> Option<Arc<CompiledModel>> {
        match self.touch(key) {
            Some(model) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(model)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<ModelKey, WarmEntry>> {
        match self.models.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up and bump recency.
    fn touch(&self, key: ModelKey) -> Option<Arc<CompiledModel>> {
        let mut models = self.lock();
        let entry = models.get_mut(&key)?;
        entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(entry.model.clone())
    }

    /// Drop least-recently-used entries until within capacity. The entry
    /// just touched (`keep`) is never evicted, so a capacity of 1 still
    /// serves the current request from the cache.
    fn evict_past_capacity(&self, models: &mut HashMap<ModelKey, WarmEntry>, keep: ModelKey) {
        if self.capacity == 0 {
            return;
        }
        while models.len() > self.capacity {
            let Some(victim) = models
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                return;
            };
            models.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of distinct compiled models held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= compilations attempted) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total footprint of the warm entries, in [`CompiledModel::footprint_units`].
    pub fn warm_units(&self) -> u64 {
        self.lock().values().map(|e| e.footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    #[test]
    fn keys_are_stable_and_content_sensitive() {
        assert_eq!(ModelKey::of_source(OSC), ModelKey::of_source(OSC));
        assert_ne!(
            ModelKey::of_source(OSC),
            ModelKey::of_source("model Osc2; Real x; equation der(x) = -x; end Osc2;")
        );
        // Key renders as fixed-width hex (checkpoint format relies on it).
        assert_eq!(ModelKey(0xff).to_string(), "00000000000000ff");
    }

    #[test]
    fn registry_compiles_once_and_shares() {
        let reg = ModelRegistry::new();
        let a = reg.get_or_compile(OSC).unwrap();
        let b = reg.get_or_compile(OSC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.misses(), 1);
        assert_eq!(reg.hits(), 1);
        assert_eq!(a.dim(), 2);
    }

    #[test]
    fn registry_surfaces_compile_errors() {
        let reg = ModelRegistry::new();
        let err = reg
            .get_or_compile("model Broken; Real x; equation end")
            .unwrap_err();
        assert!(!err.to_string().is_empty());
        assert!(reg.is_empty());
    }

    #[test]
    fn identity_tracks_compiled_structure_not_text() {
        let a = CompiledModel::compile(OSC).unwrap();
        // Whitespace-only change: same pipeline output, different key.
        let spaced = OSC.replace("equation", "equation\n");
        let b = CompiledModel::compile(&spaced).unwrap();
        assert_ne!(a.key(), b.key());
        assert_eq!(a.identity(), b.identity());
        // A different model has a different identity.
        let c = CompiledModel::compile(
            "model Osc; Real x(start=1.0); Real y;
             equation der(x) = 2.0*y; der(y) = -x; end Osc;",
        )
        .unwrap();
        assert_ne!(a.identity(), c.identity());
    }

    #[test]
    fn array_dimension_changes_the_identity() {
        // Same class structure, different cardinality: the loop tasks'
        // patch tables (and enumerated writes) must keep the identities
        // distinct, and the array-aware graph must not collide with the
        // scalarized oracle graph of the same model.
        fn heat(n: usize) -> String {
            format!(
                "model H; Real[{n}] u; equation
                   der(u[1]) = 3.5*u[2] - 8.0*u[1];
                   for i in 2:{m} loop
                     der(u[i]) = 4.5*u[i-1] - 8.0*u[i] + 3.5*u[i+1];
                   end for;
                   der(u[{n}]) = 4.5*u[{m}] - 8.0*u[{n}];
                 end H;",
                m = n - 1
            )
        }
        let generator = CodeGenerator::default();
        let id_aware = |n: usize| {
            let ir = om_ir::causalize(&om_lang::compile_arrays(&heat(n)).unwrap()).unwrap();
            assert!(ir.has_classes());
            graph_identity(&generator.generate(&ir).graph)
        };
        assert_ne!(id_aware(12), id_aware(13));
        let oracle = om_ir::causalize(&om_lang::compile(&heat(12)).unwrap()).unwrap();
        assert_ne!(
            id_aware(12),
            graph_identity(&generator.generate(&oracle).graph)
        );
    }

    #[test]
    fn schedule_is_the_equation_level_schedule() {
        let m = CompiledModel::compile(OSC).unwrap();
        assert_eq!(m.schedule(2), m.program().schedule(2));
        assert_eq!(m.schedule(4).loads.len(), 4);
        // The in-thread graph is the one the identity hashes.
        assert_eq!(m.identity(), graph_identity(m.graph()));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a reference vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Three structurally-distinct one-state models for eviction tests.
    fn variant(coeff: u32) -> String {
        format!("model V{coeff}; Real x(start=1.0); equation der(x) = -{coeff}.0*x; end V{coeff};")
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let reg = ModelRegistry::with_capacity(2);
        let (a, b, c) = (variant(1), variant(2), variant(3));
        reg.get_or_compile(&a).unwrap();
        reg.get_or_compile(&b).unwrap();
        // Touch `a` so `b` becomes the LRU victim when `c` lands.
        reg.get_or_compile(&a).unwrap();
        reg.get_or_compile(&c).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.evictions(), 1);
        assert!(reg.get_by_key(ModelKey::of_source(&a)).is_some());
        assert!(reg.get_by_key(ModelKey::of_source(&b)).is_none());
        assert!(reg.get_by_key(ModelKey::of_source(&c)).is_some());
        // The evicted model recompiles on demand (counted as a miss).
        let misses_before = reg.misses();
        reg.get_or_compile(&b).unwrap();
        assert_eq!(reg.misses(), misses_before + 1);
    }

    #[test]
    fn capacity_one_still_serves_current_request() {
        let reg = ModelRegistry::with_capacity(1);
        let (a, b) = (variant(4), variant(5));
        let first = reg.get_or_compile(&a).unwrap();
        let second = reg.get_or_compile(&b).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.evictions(), 1);
        // The in-flight Arc from before the eviction stays valid.
        assert_eq!(first.dim(), 1);
        assert_eq!(second.dim(), 1);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let reg = ModelRegistry::with_capacity(0);
        for coeff in 1..=5 {
            reg.get_or_compile(&variant(coeff)).unwrap();
        }
        assert_eq!(reg.len(), 5);
        assert_eq!(reg.evictions(), 0);
    }

    #[test]
    fn get_by_key_counts_hits_and_misses() {
        let reg = ModelRegistry::new();
        let compiled = reg.get_or_compile(OSC).unwrap();
        let (h0, m0) = (reg.hits(), reg.misses());
        let found = reg.get_by_key(compiled.key()).unwrap();
        assert!(Arc::ptr_eq(&found, &compiled));
        assert_eq!(reg.hits(), h0 + 1);
        assert!(reg.get_by_key(ModelKey(0xdead_beef)).is_none());
        assert_eq!(reg.misses(), m0 + 1);
    }

    #[test]
    fn warm_units_track_footprints() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.warm_units(), 0);
        let a = reg.get_or_compile(OSC).unwrap();
        assert_eq!(reg.warm_units(), a.footprint_units());
        assert!(a.footprint_units() > 0);
        let b = reg.get_or_compile(&variant(7)).unwrap();
        assert_eq!(reg.warm_units(), a.footprint_units() + b.footprint_units());
    }
}
