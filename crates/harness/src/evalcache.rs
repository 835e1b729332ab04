//! Campaign-wide shared evaluation cache — the cross-job memo.
//!
//! Different search algorithms probe overlapping regions of the same
//! benchmark's configuration space: every algorithm of a table row starts
//! from the all-lowered configuration, and the hierarchical/compositional
//! family re-derives many of the same cluster subsets. The per-evaluator
//! memo cannot see across jobs, so a campaign re-runs those configurations
//! once per cell. This module provides the campaign-wide complement: a
//! process-wide, thread-safe cache keyed by *(benchmark scope, packed
//! configuration fingerprint)* that the scheduler attaches to every
//! non-faulted job.
//!
//! Sharing is a pure wall-clock optimisation. A shared-cache hit still
//! consumes evaluation budget and still counts toward `evaluated` (see
//! [`mixp_core::EvalCache`]), and the cached floats are exactly what a
//! fresh run would recompute — so campaign results are bit-identical with
//! the cache on or off. Hit/miss counters are surfaced in the campaign
//! report ([`crate::scheduler::CampaignStats`]).

use crate::journal::JsonlJournal;
use crate::json::Json;
use crate::lock_recovering;
use crate::registry::Scale;
use mixp_core::{CachedEval, ConfigKey, EvalCache};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count: enough to keep contention negligible for the scheduler's
/// worker counts while staying cheap to allocate per campaign.
const SHARD_COUNT: usize = 16;

/// Version tag of the cache journal format.
pub const CACHE_VERSION: &str = "mixp-eval-cache-1";

type Shard = HashMap<String, HashMap<ConfigKey, CachedEval>>;

/// Per-shard counters, surfaced as observability metrics by the scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served by this shard.
    pub hits: u64,
    /// Lookups that found nothing in this shard.
    pub misses: u64,
    /// Fresh entries inserted into this shard.
    pub inserts: u64,
}

#[derive(Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// The campaign-wide evaluation cache: one instance per campaign, shared by
/// every job through [`SharedEvalCache::scoped`] handles.
///
/// Internally sharded by the hash of *(scope, fingerprint)* so concurrent
/// jobs rarely contend on the same lock. Entries are never evicted — a
/// campaign's distinct configurations are bounded by its total evaluation
/// budget, and each entry is two floats plus a packed fingerprint.
pub struct SharedEvalCache {
    shards: Vec<Mutex<Shard>>,
    counters: Vec<ShardCounters>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The cache journal, if persisted. The first write error takes it
    /// (`None` inside), so a dead disk warns once instead of per entry.
    journal: Option<Mutex<Option<JsonlJournal>>>,
}

impl std::fmt::Debug for SharedEvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEvalCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for SharedEvalCache {
    fn default() -> Self {
        SharedEvalCache::new()
    }
}

impl SharedEvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SharedEvalCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            counters: (0..SHARD_COUNT).map(|_| ShardCounters::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            journal: None,
        }
    }

    /// A cache persisted to an append-only JSONL journal at `path`, keyed
    /// by the campaign's job-list `fingerprint` (see
    /// [`crate::checkpoint::fingerprint`]).
    ///
    /// If `path` already holds a journal for the *same* fingerprint, its
    /// entries are reloaded so a resumed campaign starts warm; a foreign or
    /// corrupt journal is restarted, and a torn trailing line is cut — the
    /// same recovery as the run-state journal ([`JsonlJournal`]). Reloaded
    /// hits still consume evaluation budget exactly like fresh-run hits, so
    /// reported numbers never change with or without persistence. The file
    /// is fsynced after every `fsync_every` appended entries (`0` disables
    /// the periodic sync; [`SharedEvalCache::sync`] at campaign completion
    /// still applies). All I/O failures degrade to an in-memory cache with
    /// one warning.
    pub fn with_persistence(path: &Path, fingerprint: &str, fsync_every: usize) -> Self {
        let mut cache = SharedEvalCache::new();
        let header = Json::Object(vec![
            (
                "version".to_string(),
                Json::String(CACHE_VERSION.to_string()),
            ),
            (
                "fingerprint".to_string(),
                Json::String(fingerprint.to_string()),
            ),
        ]);
        match JsonlJournal::open(path, &header, fsync_every) {
            Ok((journal, records)) => {
                for (scope, key, value) in records.iter().filter_map(entry_from_doc) {
                    lock_recovering(cache.shard(&scope, &key))
                        .entry(scope)
                        .or_default()
                        .insert(key, value);
                }
                cache.journal = Some(Mutex::new(Some(journal)));
            }
            Err(err) => {
                eprintln!(
                    "warning: cannot open cache journal {}: {err}; continuing in memory",
                    path.display()
                );
            }
        }
        cache
    }

    /// Forces everything journaled so far to disk. The scheduler calls
    /// this once at campaign completion; in-memory caches and already
    /// failed journals are a no-op.
    pub fn sync(&self) {
        if let Some(journal) = &self.journal {
            let mut guard = lock_recovering(journal);
            if let Some(Err(err)) = guard.as_ref().map(JsonlJournal::sync) {
                *guard = None;
                eprintln!("warning: cache journal fsync failed: {err}");
            }
        }
    }

    /// A handle scoped to one benchmark at one scale, usable as an
    /// evaluator's shared cache. Jobs over different benchmarks (or the
    /// same benchmark at different scales) can never observe each other's
    /// entries — quality and speedup are only portable within a scope.
    pub fn scoped(self: &Arc<Self>, benchmark: &str, scale: Scale) -> Arc<ScopedEvalCache> {
        let tag = match scale {
            Scale::Small => "small",
            Scale::Paper => "paper",
        };
        Arc::new(ScopedEvalCache {
            shared: Arc::clone(self),
            scope: format!("{benchmark}@{tag}"),
        })
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (each typically followed by a fresh run
    /// and a [`EvalCache::put`]).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total cached configurations across all scopes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recovering(s).values().map(HashMap::len).sum::<usize>())
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard hit/miss/insert counters, in shard order — the scheduler
    /// publishes these through the campaign's observability handle.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.counters
            .iter()
            .map(|c| ShardStats {
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                inserts: c.inserts.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn shard_index(&self, scope: &str, key: &ConfigKey) -> usize {
        let mut hasher = DefaultHasher::new();
        scope.hash(&mut hasher);
        key.hash(&mut hasher);
        (hasher.finish() as usize) % SHARD_COUNT
    }

    fn shard(&self, scope: &str, key: &ConfigKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(scope, key)]
    }

    fn get_scoped(&self, scope: &str, key: &ConfigKey) -> Option<CachedEval> {
        let index = self.shard_index(scope, key);
        let found = lock_recovering(&self.shards[index])
            .get(scope)
            .and_then(|m| m.get(key))
            .copied();
        let (global, local) = if found.is_some() {
            (&self.hits, &self.counters[index].hits)
        } else {
            (&self.misses, &self.counters[index].misses)
        };
        global.fetch_add(1, Ordering::Relaxed);
        local.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn put_scoped(&self, scope: &str, key: &ConfigKey, value: CachedEval) {
        let index = self.shard_index(scope, key);
        let fresh = lock_recovering(&self.shards[index])
            .entry(scope.to_string())
            .or_default()
            .insert(key.clone(), value)
            .is_none();
        if !fresh {
            return;
        }
        self.counters[index].inserts.fetch_add(1, Ordering::Relaxed);
        // The journal append happens outside the shard lock — a slow disk
        // must never serialise sibling jobs hashing to the same shard.
        if let Some(journal) = &self.journal {
            let entry = entry_doc(scope, key, value);
            let mut guard = lock_recovering(journal);
            if let Some(Err(err)) = guard.as_mut().map(|j| j.append(&entry)) {
                *guard = None;
                eprintln!(
                    "warning: cache journal write failed: {err}; further entries stay in memory"
                );
            }
        }
    }
}

/// One cache entry as a journal record. The packed key words are stored
/// as hex strings — the journal's numbers are `f64` and a `u64` word above
/// 2^53 would silently lose bits as a JSON number.
fn entry_doc(scope: &str, key: &ConfigKey, value: CachedEval) -> Json {
    let words: Vec<Json> = key
        .words()
        .iter()
        .map(|w| Json::String(format!("{w:016x}")))
        .collect();
    Json::Object(vec![
        ("scope".to_string(), Json::String(scope.to_string())),
        ("len".to_string(), Json::Number(key.len() as f64)),
        ("words".to_string(), Json::Array(words)),
        ("quality".to_string(), Json::Number(value.quality)),
        ("speedup".to_string(), Json::Number(value.speedup)),
    ])
}

/// Rebuilds one cache entry from a journal line; anything malformed —
/// including key words that no real configuration could produce (see
/// [`ConfigKey::from_raw`]) — is skipped.
fn entry_from_doc(doc: &Json) -> Option<(String, ConfigKey, CachedEval)> {
    let scope = doc.get("scope")?.as_str()?.to_string();
    let len = doc.get("len")?.as_f64()? as usize;
    let words = doc
        .get("words")?
        .as_array()?
        .iter()
        .map(|w| w.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .collect::<Option<Vec<u64>>>()?;
    let key = ConfigKey::from_raw(len, words)?;
    let value = CachedEval {
        quality: doc.get("quality")?.as_f64()?,
        speedup: doc.get("speedup")?.as_f64()?,
    };
    Some((scope, key, value))
}

/// A [`SharedEvalCache`] handle bound to one *(benchmark, scale)* scope;
/// this is what actually implements [`EvalCache`] for the evaluator.
#[derive(Debug, Clone)]
pub struct ScopedEvalCache {
    shared: Arc<SharedEvalCache>,
    scope: String,
}

impl ScopedEvalCache {
    /// The scope string, `benchmark@scale`.
    pub fn scope(&self) -> &str {
        &self.scope
    }
}

impl EvalCache for ScopedEvalCache {
    fn get(&self, key: &ConfigKey) -> Option<CachedEval> {
        self.shared.get_scoped(&self.scope, key)
    }

    fn put(&self, key: &ConfigKey, value: CachedEval) {
        self.shared.put_scoped(&self.scope, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::PrecisionConfig;

    fn key_of(bits: &[u8]) -> ConfigKey {
        use mixp_core::Precision;
        let mut cfg = PrecisionConfig::all_double(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if *b != 0 {
                cfg.set(mixp_core::VarId::from_index(i), Precision::Single);
            }
        }
        cfg.fingerprint()
    }

    #[test]
    fn get_put_round_trips_within_a_scope() {
        let cache = Arc::new(SharedEvalCache::new());
        let scoped = cache.scoped("tridiag", Scale::Small);
        let key = key_of(&[1, 0, 1]);
        assert!(scoped.get(&key).is_none());
        scoped.put(
            &key,
            CachedEval {
                quality: 1.5e-7,
                speedup: 1.25,
            },
        );
        let back = scoped.get(&key).expect("entry stored");
        assert_eq!(back.quality, 1.5e-7);
        assert_eq!(back.speedup, 1.25);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scopes_are_isolated() {
        let cache = Arc::new(SharedEvalCache::new());
        let a = cache.scoped("tridiag", Scale::Small);
        let b = cache.scoped("innerprod", Scale::Small);
        let c = cache.scoped("tridiag", Scale::Paper);
        let key = key_of(&[1, 1, 0]);
        a.put(
            &key,
            CachedEval {
                quality: 0.0,
                speedup: 2.0,
            },
        );
        assert!(b.get(&key).is_none(), "different benchmark");
        assert!(c.get(&key).is_none(), "different scale");
        assert!(a.get(&key).is_some());
    }

    #[test]
    fn two_handles_to_the_same_scope_share_entries() {
        let cache = Arc::new(SharedEvalCache::new());
        let first = cache.scoped("eos", Scale::Small);
        let second = cache.scoped("eos", Scale::Small);
        let key = key_of(&[0, 1]);
        first.put(
            &key,
            CachedEval {
                quality: 3.0,
                speedup: 1.0,
            },
        );
        assert!(second.get(&key).is_some());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn shard_stats_track_traffic() {
        let cache = Arc::new(SharedEvalCache::new());
        let scoped = cache.scoped("tridiag", Scale::Small);
        let key = key_of(&[1, 0]);
        assert!(scoped.get(&key).is_none());
        scoped.put(
            &key,
            CachedEval {
                quality: 1.0,
                speedup: 1.0,
            },
        );
        assert!(scoped.get(&key).is_some());
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 16);
        let total: ShardStats = stats.iter().fold(ShardStats::default(), |a, s| ShardStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            inserts: a.inserts + s.inserts,
        });
        assert_eq!(total.hits, 1);
        assert_eq!(total.misses, 1);
        assert_eq!(total.inserts, 1);
        assert_eq!(total.hits, cache.hits(), "per-shard sums match globals");
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mixp-evalcache-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn persisted_entries_reload_for_the_same_fingerprint() {
        let path = tmpfile("reload");
        std::fs::remove_file(&path).ok();
        let key = key_of(&[1, 0, 1, 0, 1]);
        {
            let cache = Arc::new(SharedEvalCache::with_persistence(&path, "cafebabe", 0));
            let scoped = cache.scoped("tridiag", Scale::Small);
            scoped.put(
                &key,
                CachedEval {
                    quality: 1.5e-7,
                    speedup: 1.25,
                },
            );
        }
        // Same fingerprint: the entry is warm before any put.
        let cache = Arc::new(SharedEvalCache::with_persistence(&path, "cafebabe", 0));
        assert_eq!(cache.len(), 1);
        let back = cache
            .scoped("tridiag", Scale::Small)
            .get(&key)
            .expect("reloaded");
        assert_eq!(back.quality.to_bits(), 1.5e-7_f64.to_bits());
        assert_eq!(back.speedup.to_bits(), 1.25_f64.to_bits());
        // Foreign fingerprint: the journal is discarded and restarted.
        let other = Arc::new(SharedEvalCache::with_persistence(&path, "deadbeef", 0));
        assert!(other.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_cache_lines_are_skipped_on_reload() {
        let path = tmpfile("torn");
        std::fs::remove_file(&path).ok();
        {
            let cache = Arc::new(SharedEvalCache::with_persistence(&path, "feed", 0));
            let scoped = cache.scoped("eos", Scale::Small);
            scoped.put(
                &key_of(&[1]),
                CachedEval {
                    quality: 0.5,
                    speedup: 2.0,
                },
            );
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"scope\":\"eos@small\",\"len\":1,\"wor");
        std::fs::write(&path, &text).unwrap();
        {
            let cache = Arc::new(SharedEvalCache::with_persistence(&path, "feed", 0));
            assert_eq!(cache.len(), 1, "good line kept, torn line dropped");
            cache.scoped("eos", Scale::Small).put(
                &key_of(&[0, 1]),
                CachedEval {
                    quality: 0.25,
                    speedup: 3.0,
                },
            );
        }
        // The entry appended after the tear must not be glued onto it.
        let cache = Arc::new(SharedEvalCache::with_persistence(&path, "feed", 0));
        assert_eq!(cache.len(), 2, "entry appended after the tear survives");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_key_words_never_materialise() {
        let path = tmpfile("badkey");
        // Hand-write a journal whose entry has padding bits set: the line
        // parses as JSON but ConfigKey::from_raw must reject it.
        std::fs::write(
            &path,
            "{\"version\":\"mixp-eval-cache-1\",\"fingerprint\":\"aa\"}\n\
             {\"scope\":\"x@small\",\"len\":1,\"words\":[\"ffffffffffffffff\"],\
             \"quality\":1,\"speedup\":1}\n",
        )
        .unwrap();
        let cache = Arc::new(SharedEvalCache::with_persistence(&path, "aa", 0));
        assert!(cache.is_empty(), "garbage keys must not load");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let cache = Arc::new(SharedEvalCache::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let handle = cache.scoped("hydro-1d", Scale::Small);
                    for i in 0..64u8 {
                        let key = key_of(&[t, i, i.wrapping_mul(3)]);
                        handle.put(
                            &key,
                            CachedEval {
                                quality: f64::from(i),
                                speedup: 1.0,
                            },
                        );
                        assert!(handle.get(&key).is_some());
                    }
                });
            }
        });
        assert!(!cache.is_empty());
        assert_eq!(cache.misses(), 0, "every get follows its own put");
    }
}
