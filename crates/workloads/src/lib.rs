//! Synthetic long-context workloads with measurable ground truth.
//!
//! The paper evaluates on LongBench (long-context *input*) and LongWriter
//! (long-context *reasoning/generation*). Neither dataset nor a GPT-4o
//! judge is available here, so this crate builds the closest synthetic
//! equivalents with controlled ground truth:
//!
//! * [`context`] — long distractor contexts with **planted evidence**:
//!   evidence and question tokens carry the model's semantic probe
//!   direction, so the (simulated) teacher genuinely attends to evidence
//!   through its own attention mechanism — nothing is scripted;
//! * [`longbench`] — four task families mirroring the paper's LongBench
//!   subset (2WikiMQA, TriviaQA, HotpotQA, PassageCount), scored from the
//!   model's *real attention trace* at the answer step;
//! * [`longwriter`] — long-generation tasks scored on six mechanical
//!   proxy dimensions matching Table 4's rubric.

pub mod context;
pub mod longbench;
pub mod longwriter;
pub mod needle;

pub use context::{ContextBuilder, PlantedContext};
pub use longbench::{LongBenchTask, TaskInstance, TaskKind};
pub use longwriter::{score_generation, LongWriterScores, LongWriterTask};
pub use needle::{NeedleInstance, NeedleTask};
