//! The paper's primary contribution, assembled: the hybrid point/volume
//! rendering pipeline (§2), its dual transfer functions, the interactive
//! viewer with its frame cache, and the remote-visualization transfer
//! model.
//!
//! - [`transfer`] — the volume transfer function (density → color/opacity,
//!   step + ramp) and the point transfer function (density → fraction of
//!   points drawn), with the paper's inverse linking (Figure 3).
//! - [`hybrid`] — the hybrid frame: extracted halo points + low-resolution
//!   density volume, with honest byte accounting.
//! - [`scene`] — rendering a hybrid frame (volume, points, or combined —
//!   Figure 4) and the field-line scene for §3's representations.
//! - [`viewer`] — the desktop viewer model: frame stepping, memory
//!   budget, disk-load times, video-memory residency (Figure 5, §2.5).
//! - [`remote`] — bandwidth/storage model for moving representations "to
//!   a remote computer on a scientist's desk thousands of miles away".
//! - [`shard`] — deterministic frame-to-shard ownership (rendezvous
//!   hashing) for spreading one catalog across N frame servers.
//! - [`pipeline`] — end-to-end orchestration: simulate → partition →
//!   extract → view.

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod pipeline;
pub mod remote;
pub mod scene;
pub mod session;
pub mod shard;
pub mod transfer;
pub mod viewer;

pub use hybrid::HybridFrame;
pub use pipeline::{process_run, PipelineParams};
pub use remote::TransferModel;
pub use scene::{render_hybrid_frame, RenderMode, SceneStats};
pub use session::{SessionOp, ViewerSession};
pub use shard::ShardSpec;
pub use transfer::{PointTransferFunction, TransferFunctionPair, VolumeTransferFunction};
pub use viewer::{FrameCache, FrameLoad};
