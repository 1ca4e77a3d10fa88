//! Background spill writing for map attempts.
//!
//! Before this module, a map worker that filled its staging budget
//! stopped mapping until the spill was sorted, combined, compressed and
//! flushed to disk. A [`SpillWriter`] decouples the two: the mapper
//! detaches the full buffer, [`submit`](SpillWriter::submit)s it, and
//! keeps mapping into a recycled buffer from the
//! [`BufferPool`] while writer threads drain
//! the queue through [`crate::spill::write_sorted_run`]. The channel is
//! bounded at the thread count, so with the default single thread the
//! pipeline is exactly double-buffered: one buffer filling, one
//! flushing, never unbounded memory.
//!
//! The writer is **attempt-scoped** and must be joined
//! ([`finish`](SpillWriter::finish)) before the attempt's
//! [`AttemptDir`](crate::spill::AttemptDir) can drop — otherwise a
//! failing attempt would delete the directory under an in-flight write.
//! Every submitted buffer is returned to the pool by the writer thread,
//! written or not, so pool accounting stays exact on fault paths; run
//! sequence numbers are assigned at submit time and results are sorted
//! by them, so the committed run order — and therefore the merge
//! tie-break — is independent of write completion order and thread
//! count.
//!
//! `spill_writer_threads = 0` degrades to fully synchronous writes in
//! [`submit`](SpillWriter::submit) (the pre-pipeline behaviour), which
//! the differential tests use as the byte-identity reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mr_ir::value::Value;
use mr_storage::blockcodec::ShuffleCompression;
use mr_storage::fault::IoFaults;
use parking_lot::Mutex as PlMutex;

use crate::combine::CombineStrategy;
use crate::counters::Counters;
use crate::dictctx::DictContext;
use crate::error::{EngineError, Result};
use crate::pool::BufferPool;
use crate::spill::{write_sorted_run, SpillRun};

/// Everything a spill write needs besides the pairs themselves. Cloned
/// into each writer thread.
#[derive(Clone)]
pub struct SpillWriterCfg {
    /// Attempt directory the runs are written into.
    pub dir: PathBuf,
    /// Shuffle codec for the run files.
    pub compression: ShuffleCompression,
    /// Shared-dictionary authority, required when `compression` is the
    /// dict-trained codec (the first written spill trains it).
    pub dict: Option<Arc<DictContext>>,
    /// Attempt-local counters (spill traffic is only published if the
    /// attempt commits).
    pub counters: Arc<Counters>,
    /// Fault injection for the run I/O.
    pub io: Option<Arc<IoFaults>>,
    /// Pool the submitted buffers and writer scratch recycle through.
    pub pool: Arc<BufferPool>,
    /// Cross-thread shuffle-time attribution (sorting + writing).
    pub shuffle_nanos: Arc<AtomicU64>,
}

struct SpillJob {
    partition: usize,
    seq: usize,
    pairs: Vec<(Value, Value)>,
    /// Spill-time combine site: the attempt's strategy, or the
    /// pass-through once its staging has bypassed the combiner.
    combine: CombineStrategy,
}

#[derive(Default)]
struct WriterShared {
    runs: PlMutex<Vec<(usize, SpillRun)>>,
    error: PlMutex<Option<EngineError>>,
    failed: AtomicBool,
}

/// Sort, combine and write one submitted buffer, returning it to the
/// pool whatever happens. Shared by the inline path and the writer
/// threads.
fn write_one(cfg: &SpillWriterCfg, job: SpillJob, shared: &WriterShared) {
    let SpillJob {
        partition,
        seq,
        mut pairs,
        combine,
    } = job;
    if !shared.failed.load(Ordering::Relaxed) {
        let t = Instant::now();
        match write_sorted_run(
            &cfg.dir,
            partition,
            seq,
            &mut pairs,
            &combine,
            cfg.compression,
            cfg.dict.as_deref(),
            &cfg.counters,
            cfg.io.as_ref(),
            &cfg.pool,
        ) {
            Ok(run) => {
                cfg.shuffle_nanos
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Counters::add(&cfg.counters.spill_count, 1);
                Counters::add(&cfg.counters.spilled_records, run.pairs);
                Counters::add(&cfg.counters.spill_bytes_raw, run.raw_bytes);
                Counters::add(&cfg.counters.spill_bytes_written, run.bytes);
                shared.runs.lock().push((partition, run));
            }
            Err(e) => {
                *shared.error.lock() = Some(e);
                shared.failed.store(true, Ordering::Relaxed);
            }
        }
    }
    cfg.pool.put_pairs(pairs);
}

/// A per-attempt spill pipeline: buffers go in, sorted runs come out.
pub struct SpillWriter {
    cfg: SpillWriterCfg,
    tx: Option<SyncSender<SpillJob>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<WriterShared>,
    next_seq: usize,
}

impl SpillWriter {
    /// Start a writer over `threads` background threads writing into
    /// `cfg.dir`. `threads == 0` keeps every write synchronous inside
    /// [`submit`](Self::submit).
    pub fn new(cfg: SpillWriterCfg, threads: usize) -> SpillWriter {
        let shared = Arc::new(WriterShared::default());
        let mut writer = SpillWriter {
            cfg,
            tx: None,
            handles: Vec::new(),
            shared,
            next_seq: 0,
        };
        if threads > 0 {
            // Capacity = thread count: one buffer queued per writer on
            // top of the one each is flushing. submit() blocking on a
            // full channel is the backpressure that bounds attempt
            // memory at (threads × 2 + 1) buffers.
            let (tx, rx) = std::sync::mpsc::sync_channel::<SpillJob>(threads);
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..threads {
                let cfg = writer.cfg.clone();
                let shared = Arc::clone(&writer.shared);
                let rx: Arc<Mutex<Receiver<SpillJob>>> = Arc::clone(&rx);
                writer.handles.push(std::thread::spawn(move || loop {
                    let job = match rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => write_one(&cfg, job, &shared),
                        Err(_) => return, // channel closed: attempt over
                    }
                }));
            }
            writer.tx = Some(tx);
        }
        writer
    }

    /// Queue one detached staging buffer for partition `p`, to be
    /// folded through `combine` after its sort. Blocks only
    /// when every writer thread is busy *and* the queue is full — the
    /// double-buffer handoff. The buffer's run sequence is claimed
    /// here, so submission order decides merge order no matter when the
    /// write lands.
    ///
    /// After a write error the pipeline goes inert: buffers are
    /// recycled unwritten and an error comes back immediately; the root
    /// cause is what [`finish`](Self::finish) returns.
    pub fn submit(
        &mut self,
        partition: usize,
        pairs: Vec<(Value, Value)>,
        combine: CombineStrategy,
    ) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let job = SpillJob {
            partition,
            seq,
            pairs,
            combine,
        };
        if self.shared.failed.load(Ordering::Relaxed) {
            self.cfg.pool.put_pairs(job.pairs);
            return Err(spill_failed());
        }
        match &self.tx {
            None => {
                write_one(&self.cfg, job, &self.shared);
                match self.shared.failed.load(Ordering::Relaxed) {
                    true => Err(spill_failed()),
                    false => Ok(()),
                }
            }
            Some(tx) => match tx.send(job) {
                Ok(()) => Ok(()),
                Err(std::sync::mpsc::SendError(job)) => {
                    // Writers only exit early if one panicked.
                    self.cfg.pool.put_pairs(job.pairs);
                    Err(spill_failed())
                }
            },
        }
    }

    /// Close the queue and join the writer threads.
    fn shutdown(&mut self) {
        self.tx.take(); // disconnects: writers drain the queue and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Drain the pipeline and collect `(partition, run)` in submission
    /// order, or the first write error. Must be called (and is, on
    /// every attempt path) before the attempt directory drops.
    pub fn finish(mut self) -> Result<Vec<(usize, SpillRun)>> {
        self.shutdown();
        if let Some(e) = self.shared.error.lock().take() {
            return Err(e);
        }
        let mut runs = std::mem::take(&mut *self.shared.runs.lock());
        runs.sort_by_key(|(_, r)| r.seq);
        Ok(runs)
    }
}

impl Drop for SpillWriter {
    /// Dropping without [`finish`](Self::finish) still drains the
    /// queue — every in-flight buffer reaches the pool and no thread
    /// outlives the attempt.
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spill_failed() -> EngineError {
    EngineError::Config("background spill writer failed; see attempt error".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillDir;
    use mr_storage::fault::IoSite;
    use mr_storage::runfile::RunFileReader;

    fn cfg(dir: &SpillDir, pool: &Arc<BufferPool>, io: Option<Arc<IoFaults>>) -> SpillWriterCfg {
        SpillWriterCfg {
            dir: dir.path().to_path_buf(),
            compression: ShuffleCompression::None,
            dict: None,
            counters: Counters::new(),
            io,
            pool: Arc::clone(pool),
            shuffle_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    fn buf(pool: &BufferPool, pairs: &[(i64, i64)]) -> Vec<(Value, Value)> {
        let mut b = pool.get_pairs();
        b.extend(pairs.iter().map(|&(k, v)| (Value::Int(k), Value::Int(v))));
        b
    }

    fn run_pipeline(threads: usize) -> Vec<Vec<(Value, Value)>> {
        let dir = SpillDir::create(None, &format!("writer-{threads}")).unwrap();
        let pool = BufferPool::new();
        let c = cfg(&dir, &pool, None);
        let counters = Arc::clone(&c.counters);
        let mut w = SpillWriter::new(c, threads);
        w.submit(
            0,
            buf(&pool, &[(3, 30), (1, 10)]),
            CombineStrategy::passthrough(),
        )
        .unwrap();
        w.submit(1, buf(&pool, &[(2, 20)]), CombineStrategy::passthrough())
            .unwrap();
        w.submit(0, buf(&pool, &[(1, 11)]), CombineStrategy::passthrough())
            .unwrap();
        let runs = w.finish().unwrap();
        assert_eq!(pool.outstanding(), 0, "all buffers recycled");
        assert_eq!(counters.snapshot().spill_count, 3);
        let seqs: Vec<usize> = runs.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "submission order survives");
        assert_eq!(
            runs.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        runs.iter()
            .map(|(_, r)| {
                RunFileReader::open(&r.path)
                    .unwrap()
                    .map(|x| x.unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn inline_and_background_write_identical_runs() {
        let inline = run_pipeline(0);
        for threads in [1, 2, 4] {
            assert_eq!(run_pipeline(threads), inline, "threads={threads}");
        }
    }

    #[test]
    fn write_error_surfaces_and_recycles_buffers() {
        let dir = SpillDir::create(None, "writer-fault").unwrap();
        let pool = BufferPool::new();
        // Fail the very first pair append in the background.
        let io = Arc::new(IoFaults::new().with_fault(IoSite::RunWrite, 0));
        let mut w = SpillWriter::new(cfg(&dir, &pool, Some(io)), 1);
        w.submit(0, buf(&pool, &[(1, 1)]), CombineStrategy::passthrough())
            .unwrap();
        // Later submissions either race in before the failure is seen
        // (recycled unwritten) or fail fast here; both keep accounting.
        let _ = w.submit(0, buf(&pool, &[(2, 2)]), CombineStrategy::passthrough());
        let err = w.finish().unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "{err}");
        assert_eq!(pool.outstanding(), 0, "fault path leaks nothing");
    }

    #[test]
    fn drop_without_finish_recycles_everything() {
        let dir = SpillDir::create(None, "writer-drop").unwrap();
        let pool = BufferPool::new();
        let mut w = SpillWriter::new(cfg(&dir, &pool, None), 2);
        for i in 0..6 {
            w.submit(0, buf(&pool, &[(i, i)]), CombineStrategy::passthrough())
                .unwrap();
        }
        drop(w);
        assert_eq!(pool.outstanding(), 0);
    }
}
