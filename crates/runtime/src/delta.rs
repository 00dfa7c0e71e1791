//! Incremental delta checkpoints: content-addressed chunk store, manifests,
//! and the canonical state-image encoding (DESIGN.md §12).
//!
//! A [`StateImage`] is the canonical persisted form of one run's full
//! mid-run state: named *planes* (slab, buffers, scheduler queue, driver
//! scalars, report, spans, …), each a list of word *chunks* held in one
//! word buffer. Chunk boundaries follow the state's natural granularity —
//! one chunk per resident trajectory, per buffered experience, per pending
//! event — so a mutation dirties only the chunks it touched. Planes
//! without natural boundaries (scalar blocks, append-only streams) are
//! paginated into fixed [`PAGE_WORDS`] chunks, where appends dirty only
//! the tail page.
//!
//! A [`DeltaStore`] persists chunks content-addressed by their [`chunk_key`]:
//! committing an image writes only chunks whose key is not already stored,
//! as one word segment per commit, and records a [`Manifest`] — the
//! ordered chunk-key lists per plane, a
//! whole-state fingerprint, and a link to the parent manifest. The delta
//! cost of a cadence point is therefore the bytes of its *new* chunks plus
//! the manifest, not the whole state; [`CommitStats`] accounts both so the
//! bench can gate on the ratio.
//!
//! Restore runs the protocol in reverse. [`DeltaStore::verify`] streams a
//! manifest's stored chunks once, proving they hash to the manifest's
//! recorded fingerprint and that the live state's image equals them word
//! for word, and
//! [`Recoverable::resume_verified`](crate::recovery::Recoverable::resume_verified)
//! refuses to resume unless both hold — a full chunk-integrity +
//! state-identity check before any event replays.
//! [`DeltaStore::reconstruct`] reassembles the image itself.
//!
//! Every hash here — chunk keys, image fingerprints, manifest ids — is one
//! word-at-a-time fold: a 64×64→128-bit multiply per word with its two
//! halves xor-folded (`fold_word` documents why). A commit computes each
//! chunk's key and the image fingerprint in one fused pass over the words,
//! and a verify hashes each stored word once. The image layout and these
//! hashes together are format [`IMAGE_FORMAT`].

use crate::report::{ConsumedTraj, RunReport};
use laminar_rollout::ReplicaEngine;
use laminar_sim::{IdMap, Scheduler, Time, TimeSeries, TraceSpan};
use std::collections::hash_map::Entry;

/// Words per page for planes encoded as flat streams. 32 words = 256 bytes:
/// small enough that a point mutation dirties little, large enough that the
/// manifest (one key per page) stays a small fraction of the data.
pub const PAGE_WORDS: usize = 32;

/// The checkpoint image format: the words each plane carries and the fold
/// that keys and fingerprints them. Checkpoint descriptors name it, so one
/// written under another format is refused by name instead of failing its
/// fingerprint check. Format 1 hashed with byte-serial FNV-1a and carried
/// dead, derived and lossy words; format 2 folds a whole word per multiply,
/// drops the dead and derived words and carries the lossy ones in full;
/// format 3 drops the words of state no run reads: the rollout manager's
/// health map and repack counters (it keeps `C_prev` per sampled replica),
/// the experience buffer's flow counters and constant eviction words, the
/// partial pool's counters and per-entry update times, the actor
/// checkpoint history beyond the newest version, and the pipelines'
/// per-batch generation start times.
pub const IMAGE_FORMAT: u32 = 3;

/// Trace spans per chunk in span planes. Spans are append-only during a
/// run, so a full batch keeps its chunk key and only the tail batch's chunk
/// is new at each commit.
pub const SPAN_BATCH: usize = 8;

/// One named plane of a state image: an ordered list of word chunks, held
/// as one word buffer plus each chunk's end offset in it, so a plane costs
/// a few allocations however many chunks it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatePlane {
    /// Stable plane name (part of the fingerprint domain).
    pub name: &'static str,
    /// Every chunk's words, concatenated in chunk order: the plane's word
    /// stream.
    words: Vec<u64>,
    /// Each chunk's end offset in `words`, ascending; each chunk starts
    /// where the one before it ends, the first at 0.
    ends: Vec<u32>,
}

impl StatePlane {
    /// An empty plane.
    pub fn new(name: &'static str) -> Self {
        StatePlane {
            name,
            words: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Reserves room for `words` more words in `chunks` more chunks.
    fn reserve(&mut self, words: usize, chunks: usize) {
        self.words.reserve(words);
        self.ends.reserve(chunks);
    }

    /// Ends the open chunk: the words appended since the previous chunk
    /// ended.
    fn close_chunk(&mut self) {
        let end = u32::try_from(self.words.len()).expect("a plane holds under 2^32 words");
        self.ends.push(end);
    }

    /// Appends one natural-granularity chunk.
    pub fn push_chunk(&mut self, words: &[u64]) {
        self.words.extend_from_slice(words);
        self.close_chunk();
    }

    /// Appends one chunk per record, in iteration order, each holding the
    /// words `encode` writes for that record. `encode` appends straight to
    /// the plane's word buffer and must do nothing else to it. The buffer
    /// grows once for the whole sequence, by the first record's length
    /// times the records the iterator says are left, so a plane of records
    /// costs a few allocations, not one per record.
    pub fn extend_records<R>(
        &mut self,
        records: impl IntoIterator<Item = R>,
        mut encode: impl FnMut(R, &mut Vec<u64>),
    ) {
        let mut records = records.into_iter();
        let Some(first) = records.next() else {
            return;
        };
        let start = self.words.len();
        encode(first, &mut self.words);
        self.close_chunk();
        let (left, _) = records.size_hint();
        self.reserve(left * (self.words.len() - start), left);
        for record in records {
            encode(record, &mut self.words);
            self.close_chunk();
        }
    }

    /// Splits a flat word stream into [`PAGE_WORDS`]-sized page chunks.
    pub fn extend_paged(&mut self, words: &[u64]) {
        self.reserve(words.len(), words.len().div_ceil(PAGE_WORDS));
        for page in words.chunks(PAGE_WORDS) {
            self.push_chunk(page);
        }
    }

    /// Appends a span stream as [`SPAN_BATCH`]-span chunks.
    pub fn extend_spans(&mut self, spans: &[TraceSpan]) {
        self.reserve(6 * spans.len(), spans.len().div_ceil(SPAN_BATCH));
        for batch in spans.chunks(SPAN_BATCH) {
            for s in batch {
                encode_span(s, &mut self.words);
            }
            self.close_chunk();
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.ends.len()
    }

    /// The chunks in order; concatenated they form the plane's word stream.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.ends.len()).map(|i| {
            let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
            &self.words[start..self.ends[i] as usize]
        })
    }

    /// Total words across all chunks.
    pub fn len_words(&self) -> u64 {
        self.words.len() as u64
    }
}

/// The canonical full-state encoding of one run at one instant: every
/// mutable plane, in a fixed order, as word chunks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateImage {
    planes: Vec<StatePlane>,
}

impl StateImage {
    /// An empty image.
    pub fn new() -> Self {
        StateImage::default()
    }

    /// Appends a plane. Plane order is part of the canonical form: the
    /// same state must always encode planes in the same order.
    pub fn push_plane(&mut self, mut plane: StatePlane) {
        // A plane of records grows by estimates; the image keeps its words
        // at their exact size.
        plane.words.shrink_to_fit();
        plane.ends.shrink_to_fit();
        self.planes.push(plane);
    }

    /// The planes in canonical order.
    pub fn planes(&self) -> &[StatePlane] {
        &self.planes
    }

    /// Total encoded bytes (8 per word) — the whole-state cost a full
    /// snapshot would persist.
    pub fn total_bytes(&self) -> u64 {
        8 * self.planes.iter().map(|p| p.len_words()).sum::<u64>()
    }

    /// The whole-state fingerprint: the word fold over every plane's name,
    /// chunk structure, and words. Equal images have equal fingerprints;
    /// the converse holds only up to hash collisions, which is why
    /// [`DeltaStore::verify`] compares words as well.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FOLD_SEED;
        for plane in &self.planes {
            h = fold_plane_head(h, plane.name, plane.chunk_count());
            for chunk in plane.chunks() {
                h = fold_chunk(h, chunk);
            }
        }
        h
    }
}

/// Start state of every fold: the second 64 bits of π's fraction.
const FOLD_SEED: u64 = 0x1319_8a2e_0370_7344;

/// The fold's odd multiplier: the first 64 bits of π's fraction.
const FOLD_MUL: u64 = 0x243f_6a88_85a3_08d3;

/// Folds one whole word into a running hash: `m = (h ^ w) * FOLD_MUL` as a
/// 64×64→128-bit product, then `h = lo(m) ^ hi(m)`.
///
/// One multiply sits on the dependency chain per word, where byte-serial
/// FNV-1a put eight, so a fold over a ~550k-word image costs a fifth of the
/// FNV-1a pass. The high half is what makes one multiply enough. A bare
/// `(h ^ w).wrapping_mul(P)` carries a flip of a word's top bit only into
/// the state's top bit, where a second such flip cancels it; the folded
/// high half spreads every input bit over the whole state, so a flip in
/// the last word changes both halves of the result. The step is not a
/// bijection: as with any 64-bit hash, distinct inputs can collide. Keys
/// and fingerprints only ever decide which chunks to store and compare;
/// [`DeltaStore::verify`] compares words, so a collision is refused, never
/// accepted.
#[inline(always)]
fn fold_word(h: u64, w: u64) -> u64 {
    let m = u128::from(h ^ w) * u128::from(FOLD_MUL);
    m as u64 ^ (m >> 64) as u64
}

/// Folds a word stream into a running hash, one [`fold_word`] per word.
fn fold_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, fold_word)
}

/// A string as words: its byte length, then its UTF-8 bytes packed eight
/// to a word, little-endian, the last word zero-padded. Lossless, unlike a
/// hash, and the length prefix keeps consecutive strings apart.
pub fn str_words(s: &str) -> impl Iterator<Item = u64> + '_ {
    let packed = s.as_bytes().chunks(8).map(|bytes| {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    });
    std::iter::once(s.len() as u64).chain(packed)
}

/// Folds a plane's header — name, then chunk count — into a running image
/// fingerprint.
fn fold_plane_head(h: u64, name: &str, chunks: usize) -> u64 {
    fold_word(fold_words(h, str_words(name)), chunks as u64)
}

/// Folds one chunk — length, then words — into a running image fingerprint.
fn fold_chunk(h: u64, words: &[u64]) -> u64 {
    fold_words(fold_word(h, words.len() as u64), words.iter().copied())
}

/// [`fold_chunk`] and [`chunk_key`] in one pass over the words, returning
/// `(fingerprint, key)`. The two chains are independent, so the CPU
/// overlaps their multiplies.
fn fold_chunk_keyed(h: u64, words: &[u64]) -> (u64, u64) {
    let len = words.len() as u64;
    let start = (fold_word(h, len), fold_word(FOLD_SEED, len));
    words
        .iter()
        .fold(start, |(h, k), &w| (fold_word(h, w), fold_word(k, w)))
}

/// Content-address of one chunk: the word fold over its length then words,
/// so a prefix and its extension never collide trivially.
pub fn chunk_key(words: &[u64]) -> u64 {
    fold_chunk(FOLD_SEED, words)
}

/// One plane's entry in a manifest: the ordered chunk keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneManifest {
    /// Plane name, as the committed image's plane carried it.
    pub name: &'static str,
    /// Total words the keys cover.
    pub len_words: u64,
    /// Chunk keys in plane order.
    pub keys: Vec<u64>,
}

/// One committed checkpoint: per-plane chunk keys, the whole-state
/// fingerprint, and the parent link forming the manifest chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest id (the word fold over the manifest's own contents).
    pub id: u64,
    /// 0-based commit index in this store.
    pub index: usize,
    /// Cadence instant the image was captured at.
    pub at: Time,
    /// Parent manifest id (`None` for the chain root).
    pub parent: Option<u64>,
    /// Planes in canonical order.
    pub planes: Vec<PlaneManifest>,
    /// Whole-state fingerprint of the committed image.
    pub fingerprint: u64,
}

impl Manifest {
    /// Serialized manifest size in bytes: 8 per chunk key plus a small
    /// per-plane and per-manifest header. Counted into the delta cost —
    /// a checkpoint writes its manifest as well as its new chunks.
    pub fn encoded_bytes(&self) -> u64 {
        let keys: u64 = self.planes.iter().map(|p| p.keys.len() as u64).sum();
        8 * (keys + 2 * self.planes.len() as u64 + 5)
    }
}

/// Cost accounting for one [`DeltaStore::commit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Chunks referenced by the manifest.
    pub chunks_total: usize,
    /// Chunks newly written by this commit.
    pub chunks_new: usize,
    /// Chunks deduplicated against already-stored content.
    pub chunks_reused: usize,
    /// Bytes this commit actually persisted: new chunk words plus the
    /// manifest itself.
    pub delta_bytes: u64,
    /// Bytes a whole-state snapshot of the same image would persist.
    pub whole_bytes: u64,
}

/// Where a stored chunk's words sit: `len` words from `start` in segment
/// `segment`.
#[derive(Debug, Clone, Copy)]
struct ChunkLoc {
    segment: u32,
    start: u32,
    len: u32,
}

/// Content-addressed chunk store plus the manifest chain. Each commit
/// stores the chunks it writes first as one exactly sized word segment,
/// and an index maps every stored key to its words in a segment.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    index: IdMap<ChunkLoc>,
    segments: Vec<Vec<u64>>,
    manifests: Vec<Manifest>,
}

impl DeltaStore {
    /// An empty store.
    pub fn new() -> Self {
        DeltaStore::default()
    }

    /// Commits `image` at cadence instant `at`: writes chunks not already
    /// stored, appends a manifest linked to the previous commit, and
    /// returns the manifest id with the commit's cost accounting. One pass
    /// over the image's words computes every [`chunk_key`] and the
    /// [`StateImage::fingerprint`] together and indexes each new key at its
    /// place in this commit's segment; a second pass copies the new chunks
    /// into the segment, allocated once at its exact size. A chunk repeated
    /// within the image is stored once, at its first occurrence, and its
    /// repeats count as reused.
    pub fn commit(&mut self, at: Time, image: &StateImage) -> (u64, CommitStats) {
        let parent = self.manifests.last().map(|m| m.id);
        let mut stats = CommitStats {
            whole_bytes: image.total_bytes(),
            ..CommitStats::default()
        };
        let segment = u32::try_from(self.segments.len()).expect("a store holds under 2^32 commits");
        let mut segment_len = 0usize;
        let chunks = image.planes().iter().map(StatePlane::chunk_count).sum();
        // Per image chunk, in order: whether this commit stores it.
        let mut fresh = Vec::with_capacity(chunks);
        let mut fingerprint = FOLD_SEED;
        let mut planes = Vec::with_capacity(image.planes().len());
        for plane in image.planes() {
            fingerprint = fold_plane_head(fingerprint, plane.name, plane.chunk_count());
            let mut keys = Vec::with_capacity(plane.chunk_count());
            for chunk in plane.chunks() {
                let key;
                (fingerprint, key) = fold_chunk_keyed(fingerprint, chunk);
                let stored = if let Entry::Vacant(e) = self.index.entry(key) {
                    e.insert(ChunkLoc {
                        segment,
                        start: u32::try_from(segment_len)
                            .expect("a commit stores under 2^32 words"),
                        len: u32::try_from(chunk.len()).expect("a chunk holds under 2^32 words"),
                    });
                    segment_len += chunk.len();
                    stats.chunks_new += 1;
                    true
                } else {
                    stats.chunks_reused += 1;
                    false
                };
                fresh.push(stored);
                keys.push(key);
            }
            planes.push(PlaneManifest {
                name: plane.name,
                len_words: plane.len_words(),
                keys,
            });
        }
        let mut words = Vec::with_capacity(segment_len);
        let all = image.planes().iter().flat_map(StatePlane::chunks);
        for (chunk, _) in all.zip(&fresh).filter(|&(_, &stored)| stored) {
            words.extend_from_slice(chunk);
        }
        self.segments.push(words);
        stats.chunks_total = chunks;
        stats.delta_bytes = 8 * segment_len as u64;
        let mut id = fold_words(
            FOLD_SEED,
            [
                self.manifests.len() as u64,
                at.as_nanos(),
                parent.unwrap_or(0),
                fingerprint,
            ],
        );
        for p in &planes {
            id = fold_words(id, str_words(p.name).chain([p.len_words]));
            id = fold_words(id, p.keys.iter().copied());
        }
        let manifest = Manifest {
            id,
            index: self.manifests.len(),
            at,
            parent,
            planes,
            fingerprint,
        };
        stats.delta_bytes += manifest.encoded_bytes();
        self.manifests.push(manifest);
        (id, stats)
    }

    /// Looks up a manifest by id.
    pub fn manifest(&self, id: u64) -> Option<&Manifest> {
        self.manifests.iter().find(|m| m.id == id)
    }

    /// The stored chunk `key` that `plane` of `manifest` references.
    fn chunk(
        &self,
        manifest: &Manifest,
        plane: &PlaneManifest,
        key: u64,
    ) -> Result<&[u64], String> {
        let loc = self.index.get(&key).ok_or_else(|| {
            format!(
                "manifest {:016x}: plane `{}` references missing chunk {key:016x}",
                manifest.id, plane.name
            )
        })?;
        let start = loc.start as usize;
        Ok(&self.segments[loc.segment as usize][start..start + loc.len as usize])
    }

    /// Reassembles the full state image a manifest describes. Fails if any
    /// referenced chunk is missing from the store.
    pub fn reconstruct(&self, manifest: &Manifest) -> Result<StateImage, String> {
        let mut image = StateImage::new();
        for plane in &manifest.planes {
            let mut rebuilt = StatePlane::new(plane.name);
            for &key in &plane.keys {
                rebuilt.push_chunk(self.chunk(manifest, plane, key)?);
            }
            image.push_plane(rebuilt);
        }
        Ok(image)
    }

    /// The integrity gate resume runs before trusting a checkpoint: every
    /// chunk `manifest` references must be stored, the stored chunks must
    /// hash to the manifest's recorded fingerprint, and `live` — the image
    /// of the state about to resume — must equal them word for word: same
    /// planes, same chunk counts, same contents. One streaming pass over
    /// the stored chunks checks all three and allocates no image. A live
    /// mismatch names the first plane and chunk where the two part ways.
    pub fn verify(&self, manifest: &Manifest, live: &StateImage) -> Result<(), String> {
        let mut fingerprint = FOLD_SEED;
        let mut diverged = None;
        for (p, plane) in manifest.planes.iter().enumerate() {
            let live_plane = live.planes().get(p);
            if diverged.is_none() {
                diverged = match live_plane {
                    None => Some(format!(
                        "plane {p} `{}`: missing from the live state",
                        plane.name
                    )),
                    Some(lp) if lp.name != plane.name => Some(format!(
                        "plane {p}: live `{}`, stored `{}`",
                        lp.name, plane.name
                    )),
                    Some(lp) if lp.chunk_count() != plane.keys.len() => Some(format!(
                        "plane `{}`: {} live chunks, {} stored",
                        plane.name,
                        lp.chunk_count(),
                        plane.keys.len()
                    )),
                    Some(_) => None,
                };
            }
            // Compared chunk by chunk only while nothing has diverged, which
            // means this plane's shape matched above.
            let mut live_chunks = live_plane
                .filter(|_| diverged.is_none())
                .map(StatePlane::chunks);
            fingerprint = fold_plane_head(fingerprint, plane.name, plane.keys.len());
            for (c, &key) in plane.keys.iter().enumerate() {
                let chunk = self.chunk(manifest, plane, key)?;
                fingerprint = fold_chunk(fingerprint, chunk);
                if let (None, Some(live)) = (&diverged, &mut live_chunks) {
                    if live.next() != Some(chunk) {
                        diverged = Some(format!("plane `{}` chunk {c}", plane.name));
                    }
                }
            }
        }
        if let Some(extra) = live.planes().get(manifest.planes.len()) {
            diverged.get_or_insert_with(|| {
                let p = manifest.planes.len();
                format!("plane {p} `{}`: not in the stored image", extra.name)
            });
        }
        if fingerprint != manifest.fingerprint {
            let at = diverged.map_or(String::new(), |d| {
                format!(" (live state first differs at {d})")
            });
            return Err(format!(
                "manifest {:016x}: stored chunks fingerprint {fingerprint:016x} != \
                 recorded {:016x}{at}",
                manifest.id, manifest.fingerprint
            ));
        }
        match diverged {
            Some(d) => Err(format!(
                "manifest {:016x}: live state diverges from the stored image at {d}",
                manifest.id
            )),
            None => Ok(()),
        }
    }

    /// Walks the parent chain from `id` back to the root, returning the
    /// chain length. Fails if a parent link dangles — a broken chain means
    /// earlier checkpoints were lost or the store was corrupted.
    pub fn verify_chain(&self, id: u64) -> Result<usize, String> {
        let mut len = 0usize;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let m = self
                .manifest(c)
                .ok_or_else(|| format!("manifest chain broken: {c:016x} not in store"))?;
            len += 1;
            cur = m.parent;
            if len > self.manifests.len() {
                return Err("manifest chain has a cycle".to_string());
            }
        }
        Ok(len)
    }
}

/// Incremental word-stream encoder helpers shared by every system's
/// `encode_state`: push typed values onto a word vector in a fixed order.
#[derive(Debug, Default)]
pub struct WordEnc {
    words: Vec<u64>,
}

impl WordEnc {
    /// An empty encoder.
    pub fn new() -> Self {
        WordEnc::default()
    }

    /// Raw word.
    pub fn u(&mut self, w: u64) -> &mut Self {
        self.words.push(w);
        self
    }

    /// Usize as word.
    pub fn z(&mut self, w: usize) -> &mut Self {
        self.words.push(w as u64);
        self
    }

    /// Float as IEEE bits.
    pub fn f(&mut self, x: f64) -> &mut Self {
        self.words.push(x.to_bits());
        self
    }

    /// Bool as 0/1.
    pub fn b(&mut self, x: bool) -> &mut Self {
        self.words.push(x as u64);
        self
    }

    /// Virtual time as nanoseconds.
    pub fn t(&mut self, t: Time) -> &mut Self {
        self.words.push(t.as_nanos());
        self
    }

    /// A time series as its length, then each point's (time, value).
    pub fn series(&mut self, series: &TimeSeries) -> &mut Self {
        self.z(series.len());
        for &(t, v) in series.points() {
            self.t(t).f(v);
        }
        self
    }

    /// `Option<Time>` as (present, nanos).
    pub fn ot(&mut self, t: Option<Time>) -> &mut Self {
        self.words.push(t.is_some() as u64);
        self.words.push(t.map_or(0, |t| t.as_nanos()));
        self
    }

    /// The accumulated words.
    pub fn take(self) -> Vec<u64> {
        self.words
    }

    /// Borrow the accumulated words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Encodes one trace span as 6 words (stable across planes and systems).
pub fn encode_span(s: &TraceSpan, out: &mut Vec<u64>) {
    out.push(span_kind_word(s));
    out.push(s.start.as_nanos());
    out.push(s.end.as_nanos());
    out.push(s.replica.map_or(0, |r| r as u64 + 1));
    out.push(s.version);
    out.push(s.tokens);
}

fn span_kind_word(s: &TraceSpan) -> u64 {
    use laminar_sim::SpanKind::*;
    match s.kind {
        Prefill => 0,
        DecodeStep => 1,
        EnvCall => 2,
        WeightSync => 3,
        TrainStep => 4,
        Stall => 5,
        Repack => 6,
        Failure => 7,
        Degraded => 8,
        Recovered => 9,
    }
}

/// Encodes a span slice as a batched plane: [`SPAN_BATCH`] spans per chunk.
/// Append-only span streams therefore dirty only their final chunk.
pub fn encode_span_plane(name: &'static str, spans: &[TraceSpan]) -> StatePlane {
    let mut plane = StatePlane::new(name);
    plane.extend_spans(spans);
    plane
}

/// Encodes a simulation's pending events as the `queue` plane: one chunk
/// per event in delivery order `(at, seq)` — a total order, so the plane
/// is exactly the remaining event schedule — holding `[at_ns, seq]` and
/// then the payload `encode_ev` writes.
pub fn encode_queue_plane<E>(
    sched: &Scheduler<E>,
    mut encode_ev: impl FnMut(&E, &mut Vec<u64>),
) -> StatePlane {
    let mut plane = StatePlane::new("queue");
    plane.extend_records(sched.pending_entries(), |(at, seq, ev), words| {
        words.extend([at.as_nanos(), seq]);
        encode_ev(ev, words);
    });
    plane
}

/// Encodes replica engines as the `engines` plane. Per engine: the scalar
/// chunk, one chunk per resident (active) trajectory, one per env-waiting
/// trajectory, one per undrained completion.
pub fn encode_engines_plane(engines: &[ReplicaEngine]) -> StatePlane {
    let mut plane = StatePlane::new("engines");
    for eng in engines {
        plane.extend_records([eng], |eng, words| eng.checkpoint_scalar_words(words));
        plane.extend_records(eng.active_states(), |(_, st), words| st.encode_words(words));
        plane.extend_records(eng.waiting_states(), |st, words| st.encode_words(words));
        plane.extend_records(eng.completions(), |done, words| done.encode_words(words));
    }
    plane
}

/// Encodes the `spans` plane of an engine-driven run: the driver's span
/// batches followed by each engine's, [`SPAN_BATCH`] spans per chunk. Span
/// streams are append-only between commits (engines buffer spans until the
/// final drain), so only the tail batch of each source changes per cadence
/// and the store deduplicates the frozen full batches.
pub fn encode_engine_spans_plane(driver: &[TraceSpan], engines: &[ReplicaEngine]) -> StatePlane {
    let sources = || std::iter::once(driver).chain(engines.iter().map(ReplicaEngine::trace_spans));
    let mut plane = StatePlane::new("spans");
    // The largest plane: sized once, so it never holds a doubled buffer.
    let lens = sources().map(<[TraceSpan]>::len);
    plane.reserve(
        6 * lens.clone().sum::<usize>(),
        lens.map(|n| n.div_ceil(SPAN_BATCH)).sum(),
    );
    for spans in sources() {
        plane.extend_spans(spans);
    }
    plane
}

/// Encodes a full run report (every vector, series, and scalar) as a
/// sectioned plane: one scalar head chunk carrying every section length,
/// then each report vector as its own independently paged stream. Report
/// vectors are append-only during a run, and separate paging means an
/// append to one vector never shifts another's pages — per cadence point
/// only each touched section's tail page re-keys.
///
/// Every field is carried losslessly (floats as IEEE bits, the system name
/// as UTF-8, each section framed by its length), so two reports with equal
/// planes have equal `Debug` text. The pattern below names every field: a
/// new one fails to compile here until it is encoded.
pub fn encode_report_plane(name: &'static str, r: &RunReport) -> StatePlane {
    let RunReport {
        system,
        iteration_secs,
        iteration_tokens,
        throughput,
        generation_fraction,
        consumed,
        mean_kv_utilization,
        rollout_waits,
        latencies,
        gen_series,
        train_series,
        repack_events,
        repack_released,
        repack_overhead_secs,
        staleness_by_finish,
    } = r;
    let mut head: Vec<u64> = str_words(system).collect();
    head.extend([
        throughput.to_bits(),
        generation_fraction.to_bits(),
        mean_kv_utilization.to_bits(),
        *repack_events,
        *repack_released,
        repack_overhead_secs.to_bits(),
        // Section lengths frame the paged streams that follow.
        iteration_secs.len() as u64,
        iteration_tokens.len() as u64,
        consumed.len() as u64,
        rollout_waits.len() as u64,
        latencies.len() as u64,
        gen_series.len() as u64,
        train_series.len() as u64,
        staleness_by_finish.len() as u64,
    ]);
    let mut plane = StatePlane::new(name);
    plane.push_chunk(&head);
    let mut sec: Vec<u64> = Vec::new();
    for vec in [iteration_secs, iteration_tokens, rollout_waits, latencies] {
        sec.clear();
        sec.extend(vec.iter().map(|x| x.to_bits()));
        plane.extend_paged(&sec);
    }
    sec.clear();
    for &ConsumedTraj {
        staleness,
        mixed_version,
    } in consumed
    {
        sec.push(staleness);
        sec.push(mixed_version as u64);
    }
    plane.extend_paged(&sec);
    for series in [gen_series, train_series] {
        sec.clear();
        for &(t, v) in series.points() {
            sec.push(t.as_nanos());
            sec.push(v.to_bits());
        }
        plane.extend_paged(&sec);
    }
    sec.clear();
    for &(frac, s) in staleness_by_finish {
        sec.push(frac.to_bits());
        sec.push(s);
    }
    plane.extend_paged(&sec);
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(chunks: Vec<Vec<u64>>) -> StateImage {
        let mut img = StateImage::new();
        let mut plane = StatePlane::new("test");
        for c in chunks {
            plane.push_chunk(&c);
        }
        img.push_plane(plane);
        img
    }

    /// Chunk `c` of `plane`, for changing its words in place.
    fn chunk_mut(plane: &mut StatePlane, c: usize) -> &mut [u64] {
        let start = c.checked_sub(1).map_or(0, |prev| plane.ends[prev] as usize);
        &mut plane.words[start..plane.ends[c] as usize]
    }

    /// Drops the last chunk of `plane`.
    fn pop_chunk(plane: &mut StatePlane) {
        plane.ends.pop();
        plane
            .words
            .truncate(plane.ends.last().map_or(0, |&end| end as usize));
    }

    /// The stored words of chunk `key`, for corrupting them in place.
    fn stored_mut(store: &mut DeltaStore, key: u64) -> &mut [u64] {
        let loc = store.index[&key];
        let start = loc.start as usize;
        &mut store.segments[loc.segment as usize][start..start + loc.len as usize]
    }

    #[test]
    fn commit_dedups_unchanged_chunks() {
        let mut store = DeltaStore::new();
        let a = image(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7]]);
        let (_, s1) = store.commit(Time::from_secs(1), &a);
        assert_eq!(s1.chunks_new, 3);
        assert_eq!(s1.chunks_reused, 0);
        // One chunk mutated, two unchanged.
        let b = image(vec![vec![1, 2, 3], vec![40, 5, 6], vec![7]]);
        let (_, s2) = store.commit(Time::from_secs(2), &b);
        assert_eq!(s2.chunks_new, 1);
        assert_eq!(s2.chunks_reused, 2);
        // Only the mutated chunk's bytes were persisted (plus the manifest).
        assert!(s2.delta_bytes < s1.delta_bytes);
    }

    #[test]
    fn reconstruct_verifies_fingerprint() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![9, 9], vec![1]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let m = store.manifest(id).expect("manifest");
        store.verify(m, &img).expect("verify");
        let back = store.reconstruct(m).expect("reconstruct");
        assert_eq!(back, img);
        assert_eq!(back.fingerprint(), m.fingerprint);
    }

    #[test]
    fn tampered_manifest_fails_verify() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![1, 2]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let mut m = store.manifest(id).expect("manifest").clone();
        m.fingerprint ^= 1;
        assert!(store.verify(&m, &img).is_err());
        m.fingerprint ^= 1;
        m.planes[0].keys[0] ^= 1;
        assert!(store.reconstruct(&m).is_err());
        assert!(store.verify(&m, &img).is_err());
    }

    /// The fingerprint and chunk keys spelled out as flat word streams,
    /// each one fold from the seed, independent of the helpers `commit`
    /// shares.
    fn reference_hashes(img: &StateImage) -> (u64, Vec<Vec<u64>>) {
        fn framed(c: &[u64]) -> impl Iterator<Item = u64> + '_ {
            std::iter::once(c.len() as u64).chain(c.iter().copied())
        }
        let stream = img.planes().iter().flat_map(|p| {
            str_words(p.name)
                .chain([p.chunk_count() as u64])
                .chain(p.chunks().flat_map(framed))
        });
        let keys = img
            .planes()
            .iter()
            .map(|p| {
                p.chunks()
                    .map(|c| framed(c).fold(FOLD_SEED, fold_word))
                    .collect()
            })
            .collect();
        (stream.fold(FOLD_SEED, fold_word), keys)
    }

    #[test]
    fn fused_commit_pass_matches_separate_hashes() {
        let mut img = StateImage::new();
        let mut paged = StatePlane::new("paged");
        paged.extend_paged(
            &(0..77u64)
                .map(|i| i.wrapping_mul(u64::MAX / 7))
                .collect::<Vec<_>>(),
        );
        img.push_plane(paged);
        img.push_plane(StatePlane::new("empty"));
        let mut natural = StatePlane::new("natural");
        natural.push_chunk(&[]);
        natural.push_chunk(&[u64::MAX, 0, 1 << 63]);
        img.push_plane(natural);
        let (fingerprint, keys) = reference_hashes(&img);
        assert_eq!(img.fingerprint(), fingerprint);
        let mut store = DeltaStore::new();
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let m = store.manifest(id).expect("manifest");
        assert_eq!(m.fingerprint, fingerprint);
        let committed: Vec<Vec<u64>> = m.planes.iter().map(|p| p.keys.clone()).collect();
        assert_eq!(committed, keys);
        let names: Vec<&str> = m.planes.iter().map(|p| p.name).collect();
        assert_eq!(names, ["paged", "empty", "natural"]);
    }

    /// A fault applied to a fresh commit of [`two_planes`]: to the store,
    /// the manifest, or the live image handed to `verify`.
    type Fault = fn(&mut DeltaStore, &mut Manifest, &mut StateImage);

    fn two_planes() -> StateImage {
        let mut img = StateImage::new();
        for (name, chunks) in [
            ("a", vec![vec![1, 2, 3], vec![4, 5, 6]]),
            ("b", vec![vec![7], vec![8, 9], vec![10]]),
        ] {
            let mut plane = StatePlane::new(name);
            for c in chunks {
                plane.push_chunk(&c);
            }
            img.push_plane(plane);
        }
        img
    }

    #[test]
    fn verify_refuses_each_fault_with_its_own_error() {
        let cases: [(&str, Fault, &[&str]); 7] = [
            (
                "flipped stored bit",
                |store, m, _| stored_mut(store, m.planes[1].keys[1])[1] ^= 1 << 40,
                &[
                    "stored chunks fingerprint",
                    "live state first differs at plane `b` chunk 1",
                ],
            ),
            (
                "flipped manifest fingerprint",
                |_, m, _| m.fingerprint ^= 1,
                &["stored chunks fingerprint", "!= recorded"],
            ),
            (
                "missing stored chunk",
                |store, m, _| {
                    store.index.remove(&m.planes[0].keys[1]);
                },
                &["plane `a` references missing chunk"],
            ),
            (
                "changed live word",
                |_, _, live| chunk_mut(&mut live.planes[1], 1)[1] += 1,
                &["live state diverges", "at plane `b` chunk 1"],
            ),
            (
                "live plane missing",
                |_, _, live| drop(live.planes.pop()),
                &[
                    "live state diverges",
                    "plane 1 `b`: missing from the live state",
                ],
            ),
            (
                "live chunk missing",
                |_, _, live| pop_chunk(&mut live.planes[0]),
                &["live state diverges", "plane `a`: 1 live chunks, 2 stored"],
            ),
            (
                "extra live plane",
                |_, _, live| live.push_plane(StatePlane::new("c")),
                &[
                    "live state diverges",
                    "plane 2 `c`: not in the stored image",
                ],
            ),
        ];
        let mut errors: Vec<String> = Vec::new();
        for (case, fault, phrases) in cases {
            let mut store = DeltaStore::new();
            let mut live = two_planes();
            let (id, _) = store.commit(Time::from_secs(1), &live);
            let mut m = store.manifest(id).expect("manifest").clone();
            store.verify(&m, &live).expect("unfaulted commit verifies");
            fault(&mut store, &mut m, &mut live);
            let err = store
                .verify(&m, &live)
                .expect_err(&format!("{case}: verify accepted the fault"));
            for phrase in phrases {
                assert!(err.contains(phrase), "{case}: `{err}` lacks `{phrase}`");
            }
            assert!(
                !errors.contains(&err),
                "{case}: error `{err}` is not its own"
            );
            errors.push(err);
        }
    }

    #[test]
    fn manifest_chain_links_parents() {
        let mut store = DeltaStore::new();
        let (a, _) = store.commit(Time::from_secs(1), &image(vec![vec![1]]));
        let (b, _) = store.commit(Time::from_secs(2), &image(vec![vec![1], vec![2]]));
        let (c, _) = store.commit(Time::from_secs(3), &image(vec![vec![1], vec![2], vec![3]]));
        assert_eq!(store.manifest(b).unwrap().parent, Some(a));
        assert_eq!(store.manifest(c).unwrap().parent, Some(b));
        assert_eq!(store.verify_chain(c).expect("chain"), 3);
    }

    #[test]
    fn chunk_key_separates_length_extensions() {
        assert_ne!(chunk_key(&[0]), chunk_key(&[0, 0]));
        assert_ne!(chunk_key(&[]), chunk_key(&[0]));
    }

    /// Seeded chunks of 1 to 33 words, spread over the whole word range.
    fn seeded_chunks() -> Vec<Vec<u64>> {
        let mut x = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        [1, 2, 3, 5, 8, 13, 32, 33]
            .into_iter()
            .map(|len| (0..len).map(|_| next()).collect())
            .collect()
    }

    /// Every single-bit flip of every word — the last word of the last
    /// chunk included, which no later multiply mixes — changes the chunk
    /// key and the image fingerprint in both 32-bit halves. A change that
    /// reaches only the high bits is how a bare `(h ^ w) * P` fails: a top
    /// bit flip stays in the top bit, where a second flip cancels it.
    #[test]
    fn every_bit_flip_changes_both_halves_of_key_and_fingerprint() {
        let chunks = seeded_chunks();
        let base = image(chunks.clone());
        let (fingerprint, keys) = (base.fingerprint(), chunks.iter().map(|c| chunk_key(c)));
        let spreads = |a: u64, b: u64| (a ^ b) as u32 != 0 && (a ^ b) >> 32 != 0;
        for (c, key) in keys.enumerate() {
            for i in 0..chunks[c].len() {
                for bit in 0..64 {
                    let mut flipped = chunks.clone();
                    flipped[c][i] ^= 1 << bit;
                    let at = format!("chunk {c} word {i} bit {bit}");
                    assert!(spreads(key, chunk_key(&flipped[c])), "key: {at}");
                    let fp = image(flipped).fingerprint();
                    assert!(spreads(fingerprint, fp), "fingerprint: {at}");
                }
            }
        }
    }

    /// Flipping the top bit of two different words of a chunk still
    /// changes its key: the flips do not cancel.
    #[test]
    fn paired_top_bit_flips_do_not_cancel() {
        for chunk in seeded_chunks() {
            let key = chunk_key(&chunk);
            for i in 0..chunk.len() {
                for j in i + 1..chunk.len() {
                    let mut flipped = chunk.clone();
                    flipped[i] ^= 1 << 63;
                    flipped[j] ^= 1 << 63;
                    assert_ne!(chunk_key(&flipped), key, "words {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn str_words_pack_length_prefixed_utf8() {
        assert_eq!(str_words("").collect::<Vec<_>>(), [0]);
        assert_eq!(
            str_words("laminar").collect::<Vec<_>>(),
            [7, u64::from_le_bytes(*b"laminar\0")]
        );
        let words: Vec<u64> = str_words("partial-rollout").collect();
        assert_eq!(words.len(), 3);
        assert_eq!(words[1].to_le_bytes(), *b"partial-");
        assert_eq!(words[2].to_le_bytes(), *b"rollout\0");
    }

    #[test]
    fn paged_planes_dirty_only_the_tail_on_append() {
        let mut store = DeltaStore::new();
        let stream: Vec<u64> = (0..200).collect();
        let mut p1 = StatePlane::new("paged");
        p1.extend_paged(&stream);
        let mut img1 = StateImage::new();
        img1.push_plane(p1);
        store.commit(Time::from_secs(1), &img1);

        let longer: Vec<u64> = (0..230).collect();
        let mut p2 = StatePlane::new("paged");
        p2.extend_paged(&longer);
        let mut img2 = StateImage::new();
        img2.push_plane(p2);
        let (_, s) = store.commit(Time::from_secs(2), &img2);
        // 200 = 6 full pages + tail of 8; append keeps the 6 full pages.
        assert_eq!(s.chunks_reused, 6, "{s:?}");
        assert_eq!(s.chunks_new, 2, "{s:?}");
    }

    #[test]
    fn span_planes_batch_stably() {
        use laminar_sim::{SpanKind, Time as T};
        let spans: Vec<TraceSpan> = (0..20)
            .map(|i| {
                TraceSpan::new(
                    SpanKind::DecodeStep,
                    T::from_secs(i),
                    T::from_secs(i + 1),
                    Some(i as usize % 3),
                    i,
                )
            })
            .collect();
        let p = encode_span_plane("spans", &spans);
        assert_eq!(p.chunk_count(), 3); // 8 + 8 + 4
        assert_eq!(p.len_words(), 6 * 20);
        // Appending spans keeps the full batches' chunk keys.
        let mut more = spans.clone();
        more.push(spans[0]);
        let p2 = encode_span_plane("spans", &more);
        let (a, b): (Vec<&[u64]>, Vec<&[u64]>) = (p.chunks().collect(), p2.chunks().collect());
        assert_eq!(a[..2], b[..2]);
        assert_ne!(a[2], b[2]);
    }

    /// A chunk repeated within one image is stored once, at its first
    /// occurrence, and its repeats count as reused; so does an empty chunk,
    /// which takes no segment words.
    #[test]
    fn repeated_and_empty_chunks_are_stored_once() {
        let mut img = image(vec![
            vec![1, 2],
            vec![],
            vec![3],
            vec![1, 2],
            vec![],
            vec![1, 2],
        ]);
        img.push_plane(StatePlane::new("empty"));
        let mut store = DeltaStore::new();
        let (id, stats) = store.commit(Time::from_secs(1), &img);
        let m = store.manifest(id).expect("manifest").clone();
        let counts = (stats.chunks_total, stats.chunks_new, stats.chunks_reused);
        assert_eq!(counts, (6, 3, 3), "{stats:?}");
        assert_eq!(stats.delta_bytes, 8 * 3 + m.encoded_bytes());
        assert_eq!(store.segments, [vec![1, 2, 3]]);
        assert_eq!(m.planes[0].keys[0], m.planes[0].keys[3]);
        assert_eq!(m.planes[1].keys, []);
        store.verify(&m, &img).expect("verify");
        assert_eq!(store.reconstruct(&m).expect("reconstruct"), img);
        // Nothing new: the second commit's segment is empty.
        let (_, again) = store.commit(Time::from_secs(2), &img);
        assert_eq!((again.chunks_new, again.chunks_reused), (0, 6));
        assert_eq!(again.delta_bytes, m.encoded_bytes());
        assert_eq!(store.segments[1], []);
    }

    /// A commit that reuses older chunks and stores new ones references
    /// two segments; it reconstructs and verifies as one image, and so does
    /// the older commit.
    #[test]
    fn commits_spanning_older_and_newer_segments_reconstruct() {
        let mut store = DeltaStore::new();
        let old = image(vec![vec![1, 2, 3], vec![4], vec![5, 6]]);
        let new = image(vec![vec![4], vec![7, 8], vec![1, 2, 3], vec![9]]);
        let (old_id, _) = store.commit(Time::from_secs(1), &old);
        let (new_id, stats) = store.commit(Time::from_secs(2), &new);
        assert_eq!((stats.chunks_new, stats.chunks_reused), (2, 2));
        assert_eq!(store.segments, [vec![1, 2, 3, 4, 5, 6], vec![7, 8, 9]]);
        for (id, img) in [(new_id, &new), (old_id, &old)] {
            let m = store.manifest(id).expect("manifest");
            store.verify(m, img).expect("verify");
            let back = store.reconstruct(m).expect("reconstruct");
            assert_eq!(&back, img);
            assert_eq!(back.fingerprint(), m.fingerprint);
        }
    }

    /// A report whose vectors and series hold two distinct elements each.
    fn sample_report() -> RunReport {
        let series = |points: [(u64, f64); 2]| {
            let mut s = TimeSeries::new();
            for (t, v) in points {
                s.push(Time::from_secs(t), v);
            }
            s
        };
        RunReport {
            system: "laminar".into(),
            iteration_secs: vec![1.0, 2.0],
            iteration_tokens: vec![3.0, 4.0],
            throughput: 5.0,
            generation_fraction: 0.5,
            consumed: vec![
                ConsumedTraj {
                    staleness: 0,
                    mixed_version: false,
                },
                ConsumedTraj {
                    staleness: 1,
                    mixed_version: false,
                },
            ],
            mean_kv_utilization: 0.25,
            rollout_waits: vec![0.5, 0.75],
            latencies: vec![6.0, 7.0],
            gen_series: series([(1, 8.0), (2, 9.0)]),
            train_series: series([(1, 10.0), (2, 11.0)]),
            repack_events: 2,
            repack_released: 3,
            repack_overhead_secs: 0.125,
            staleness_by_finish: vec![(0.5, 1), (0.75, 2)],
        }
    }

    /// One change to one report field.
    type Edit = fn(&mut RunReport);

    /// Changing any one report field — the name, each scalar, one element
    /// of each vector, one point of each series — changes the report
    /// plane, so comparing planes compares every field.
    #[test]
    fn every_report_field_changes_the_report_plane() {
        let edits: [(&str, Edit); 18] = [
            ("system", |r| r.system.push('!')),
            ("throughput", |r| r.throughput += 1.0),
            ("generation_fraction", |r| r.generation_fraction += 1.0),
            ("mean_kv_utilization", |r| r.mean_kv_utilization += 1.0),
            ("repack_events", |r| r.repack_events += 1),
            ("repack_released", |r| r.repack_released += 1),
            ("repack_overhead_secs", |r| r.repack_overhead_secs += 1.0),
            ("iteration_secs", |r| r.iteration_secs[1] += 1.0),
            ("iteration_tokens", |r| r.iteration_tokens[1] += 1.0),
            ("consumed staleness", |r| r.consumed[1].staleness += 1),
            ("consumed mixed_version", |r| {
                r.consumed[1].mixed_version = true
            }),
            ("rollout_waits", |r| r.rollout_waits[1] += 1.0),
            ("latencies", |r| r.latencies[1] += 1.0),
            ("gen_series value", |r| {
                let mut s = TimeSeries::new();
                s.push(Time::from_secs(1), 8.0);
                s.push(Time::from_secs(2), 9.5);
                r.gen_series = s;
            }),
            ("train_series time", |r| {
                let mut s = TimeSeries::new();
                s.push(Time::from_secs(1), 10.0);
                s.push(Time::from_secs(3), 11.0);
                r.train_series = s;
            }),
            ("staleness_by_finish frac", |r| {
                r.staleness_by_finish[1].0 += 1.0
            }),
            ("staleness_by_finish staleness", |r| {
                r.staleness_by_finish[1].1 += 1
            }),
            ("a vector element moved to another vector", |r| {
                r.iteration_secs.pop();
                r.iteration_tokens.insert(0, 2.0);
            }),
        ];
        let base = sample_report();
        let plane = encode_report_plane("report", &base);
        assert_eq!(encode_report_plane("report", &base.clone()), plane);
        for (field, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(format!("{changed:?}"), format!("{base:?}"), "{field}");
            assert_ne!(encode_report_plane("report", &changed), plane, "{field}");
        }
    }
}
