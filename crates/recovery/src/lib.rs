//! Recovery: checkpoints, ARIES restart, rollback, and the paper's core
//! primitive — `PreparePageAsOf`.
//!
//! * [`prepare::prepare_page_as_of`] — paper §4, Fig. 3: walk a page's
//!   backward log chain undoing modifications until the page is as of the
//!   target LSN, with the §6.1 full-page-image skip.
//! * [`checkpoint::take_checkpoint`] — fuzzy checkpoints (begin/end records
//!   carrying the ATT and DPT and a wall-clock stamp, which SplitLSN search
//!   uses to narrow its scan, §5.1);
//!   [`checkpoint::take_checkpoint_incremental`] — the background-cadence
//!   variant that flushes only old dirt, bounding crash-redo work to the
//!   checkpoint interval.
//! * [`analysis`] — the analysis pass, shared between crash recovery and
//!   as-of snapshot recovery (§5.2); it also collects the row locks that
//!   snapshot recovery must reacquire.
//! * [`restart`] — the one redo: a single forward scan feeds the
//!   incremental [`analysis::AnalysisBuilder`] *and* dispatches qualifying
//!   page-ops to redo workers partitioned by `PageId`. Per-page backward
//!   chains mean redo's only ordering constraint is per page, so
//!   hash-partitioning pages across workers (each applying its pages'
//!   records in LSN order) is exactly as correct as one worker — which is
//!   the same code with one thread behind one channel; the module docs
//!   carry the full argument.
//! * [`rollback::undo_sweep`] — the one undo walk: a merged descending-LSN
//!   sweep over any number of transaction chains, shared by transaction
//!   rollback ([`rollback::rollback_chain`], the one-chain case), restart
//!   undo, as-of snapshot recovery and restore. CLRs carry undo information
//!   (§4.2-2); undo is logical for B-Tree rows, physical for heap rows,
//!   allocation bits and partial structure modifications.
//! * [`EngineStore`] — the canonical live-engine [`rewind_access::Store`]
//!   implementation:
//!   buffer pool + WAL + per-page/per-txn chains + FPI cadence + the
//!   copy-on-write hook used by regular snapshots.

pub mod analysis;
pub mod checkpoint;
pub mod prepare;
pub mod restart;
pub mod rollback;
pub mod store;

pub use analysis::{analyze, AnalysisBuilder, AnalysisResult, LoserTxn};
pub use checkpoint::{take_checkpoint, take_checkpoint_incremental};
pub use prepare::{prepare_page_as_of, PrepareStats};
pub use restart::{pipelined_restart, PartitionedRedo, RestartOutcome};
pub use rollback::{rollback_chain, undo_sweep, AccessKind};
pub use store::{CowSink, EngineParts, EngineStore};
