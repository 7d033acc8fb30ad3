//! Aquila configuration: the typed builder and the mmio policy section.
//!
//! Construction goes through [`AquilaConfig::builder`]; the builder is the
//! only supported way to assemble a configuration (lint AQ005 rejects
//! direct struct construction elsewhere). The builder derives the machine
//! shape from the core count; every replacement/write-behind knob lives
//! in the [`MmioPolicy`] section, set as one struct literal:
//!
//! ```
//! use aquila::config::{AquilaConfig, MmioPolicy, WritePolicy};
//!
//! let cfg = AquilaConfig::builder(4, 4096)
//!     .max_cache_frames(8192)
//!     .policy(MmioPolicy {
//!         write_policy: WritePolicy::Async,
//!         low_watermark: 256,
//!         high_watermark: 1024,
//!         ..MmioPolicy::default()
//!     })
//!     .build();
//! assert_eq!(cfg.policy.low_watermark, 256);
//! ```

use aquila_devices::RetryPolicy;
use aquila_pcache::NumaTopology;
use aquila_vmx::IpiSendPath;

/// When eviction writeback happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty victims are written back synchronously inside the faulting
    /// vcore's eviction round — the fault that triggers eviction pays the
    /// full device latency (the pre-pipeline behavior, and the default).
    Sync,
    /// Dedicated evictor threads (the harness spawns
    /// [`crate::Aquila::evictor`] on cores of its choosing) watch the
    /// freelist watermarks, detach victim batches off the fault path,
    /// and write them back through real NVMe queue pairs at
    /// [`MmioPolicy::queue_depth`]; faulting vcores take clean frames
    /// from the freelist and rarely block.
    Async,
}

/// The cache-replacement and write-behind policy section of
/// [`AquilaConfig`].
#[derive(Debug, Clone)]
pub struct MmioPolicy {
    /// Pages evicted per eviction round (paper: 512; clamped at boot to
    /// 1/8 of the cache so a round never wipes the working set).
    pub evict_batch: usize,
    /// Free-frame count below which the evictor starts a round. 0 means
    /// "derive from the cache size" under [`WritePolicy::Async`] and
    /// "disabled" under [`WritePolicy::Sync`].
    pub low_watermark: usize,
    /// Free-frame count the evictor refills to once triggered. Same 0
    /// semantics as `low_watermark`.
    pub high_watermark: usize,
    /// When writeback happens relative to the fault path.
    pub write_policy: WritePolicy,
    /// NVMe queue depth for write-behind submission. 1 degenerates to the
    /// blocking one-command-then-drain discipline.
    pub queue_depth: usize,
    /// Retry/backoff policy applied to transient device-command failures
    /// (media errors, timeouts, controller resets). The access paths
    /// apply it to blocking I/O; the write-behind pipeline applies it to
    /// queue-pair submission.
    pub retry: RetryPolicy,
    /// Enables transparent 2 MiB huge-page promotion (DESIGN.md §12):
    /// 2 MiB-aligned runs of resident file pages collapse into a single
    /// PD-level PTE backed by a physically contiguous slab run.
    pub huge_pages: bool,
    /// Resident 4 KiB pages (out of 512) a 2 MiB-aligned run needs before
    /// promotion triggers; the remainder is filled eagerly from the
    /// device during collapse. Clamped to `1..=512` at engine boot.
    pub promote_threshold: usize,
    /// Enables multi-tenant QoS (DESIGN.md §15): per-tenant freelist
    /// quotas (an over-quota tenant reclaims its own frames before
    /// consuming the shared freelist), tenant-fair evictor rounds
    /// (victim batches apportioned by weighted overage), and admission
    /// control on the fault path (an over-quota tenant's faults are
    /// delayed — or shed — while the cache is under watermark pressure
    /// or degraded). Off by default: single-tenant runs are bit-for-bit
    /// unchanged.
    pub tenant_qos: bool,
    /// Mirrors the NVMe backend 2-for-1 with per-sector checksums and
    /// read-repair (DESIGN.md §16). Only meaningful for
    /// `DeviceKind::NvmeSpdk`; mirrored configurations forfeit
    /// deep-queue batched writeback (the mirror exposes no raw device).
    /// Off by default: single-device runs are bit-for-bit unchanged.
    /// Every read through the mirror verifies its per-sector checksums.
    pub mirror: bool,
    /// Resolves address-space lookups through Theseus-style spill-free
    /// region descriptors — O(1), no tree walk, no shared lock on any
    /// fault (DESIGN.md §17) — instead of the radix VMA tree. Off by
    /// default: tree-based runs are bit-for-bit unchanged.
    pub spill_regions: bool,
}

impl Default for MmioPolicy {
    fn default() -> MmioPolicy {
        MmioPolicy {
            evict_batch: 512,
            low_watermark: 0,
            high_watermark: 0,
            write_policy: WritePolicy::Sync,
            queue_depth: 8,
            retry: RetryPolicy::default(),
            huge_pages: false,
            promote_threshold: 512,
            tenant_qos: false,
            mirror: false,
            spill_regions: false,
        }
    }
}

/// Aquila configuration. Build one with [`AquilaConfig::builder`].
#[derive(Debug, Clone)]
pub struct AquilaConfig {
    /// Simulated cores (threads enter Aquila 1:1 with cores).
    pub cores: usize,
    /// Initial DRAM cache size in 4 KiB frames.
    pub cache_frames: usize,
    /// Maximum cache size (dynamic resizing headroom).
    pub max_cache_frames: usize,
    /// IPI send path for shootdowns (paper default: vmexit-mediated).
    pub ipi_path: IpiSendPath,
    /// NUMA shape.
    pub topology: NumaTopology,
    /// Replacement and write-behind policy.
    pub policy: MmioPolicy,
}

impl AquilaConfig {
    /// Starts a builder for a `cores`-wide machine with a cache of
    /// `cache_frames` frames. Up to 16 cores form one NUMA node; wider
    /// machines split into two nodes.
    pub fn builder(cores: usize, cache_frames: usize) -> AquilaConfigBuilder {
        let topology = if cores > 16 {
            NumaTopology {
                nodes: 2,
                cores_per_node: cores.div_ceil(2),
            }
        } else {
            NumaTopology::flat(cores)
        };
        AquilaConfigBuilder {
            cfg: AquilaConfig {
                cores,
                cache_frames,
                max_cache_frames: cache_frames,
                ipi_path: IpiSendPath::VmexitMediated,
                topology,
                policy: MmioPolicy::default(),
            },
        }
    }
}

/// Builder for [`AquilaConfig`]. Its only settings are the resize
/// headroom and the [`MmioPolicy`] section; call
/// [`AquilaConfigBuilder::build`] to finish.
#[derive(Debug, Clone)]
pub struct AquilaConfigBuilder {
    cfg: AquilaConfig,
}

impl AquilaConfigBuilder {
    /// Maximum cache size for dynamic resizing (default: `cache_frames`).
    pub fn max_cache_frames(mut self, frames: usize) -> Self {
        self.cfg.max_cache_frames = frames;
        self
    }

    /// Replaces the whole policy section at once.
    pub fn policy(mut self, policy: MmioPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Finishes the configuration.
    ///
    /// Under [`WritePolicy::Async`] with unset (0) watermarks, defaults
    /// are derived from the cache size: low = frames/8, high = frames/4.
    /// `high_watermark` is clamped to at least `low_watermark`.
    ///
    /// Panics if the retry policy is degenerate (zero attempts, zero
    /// breaker threshold/cooldown, zero command timeout) — every retry
    /// site assumes a usable policy, so misconfiguration fails at build
    /// time, not mid-run.
    pub fn build(self) -> AquilaConfig {
        let mut cfg = self.cfg;
        if let Err(why) = cfg.policy.retry.validate() {
            panic!("invalid retry policy: {why}");
        }
        if cfg.policy.write_policy == WritePolicy::Async && cfg.policy.low_watermark == 0 {
            cfg.policy.low_watermark = (cfg.cache_frames / 8).max(8);
            cfg.policy.high_watermark = (cfg.cache_frames / 4).max(16);
        }
        cfg.policy.high_watermark = cfg.policy.high_watermark.max(cfg.policy.low_watermark);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_policy_defaults() {
        let cfg = AquilaConfig::builder(4, 1024).build();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.cache_frames, 1024);
        assert_eq!(cfg.max_cache_frames, 1024);
        assert_eq!(cfg.ipi_path, IpiSendPath::VmexitMediated);
        assert_eq!(cfg.policy.evict_batch, 512);
        assert_eq!(cfg.policy.write_policy, WritePolicy::Sync);
        assert_eq!(cfg.policy.queue_depth, 8);
        assert_eq!(cfg.policy.low_watermark, 0, "sync mode: no watermarks");
    }

    #[test]
    fn optional_subsystems_default_off() {
        let d = MmioPolicy::default();
        assert!(!d.huge_pages, "huge pages must be opt-in");
        assert_eq!(d.promote_threshold, 512);
        assert!(!d.tenant_qos, "QoS must be opt-in");
        assert!(!d.mirror, "mirroring must be opt-in");
        assert!(!d.spill_regions, "region map must be opt-in");
        assert_eq!(d.retry.max_attempts, RetryPolicy::default().max_attempts);
    }

    #[test]
    fn builder_derives_numa_topology_from_cores() {
        let flat = AquilaConfig::builder(16, 1024).build().topology;
        assert_eq!((flat.nodes, flat.cores_per_node), (1, 16));
        let split = AquilaConfig::builder(17, 1024).build().topology;
        assert_eq!((split.nodes, split.cores_per_node), (2, 9));
    }

    #[test]
    fn async_derives_watermarks_from_cache_size() {
        let cfg = AquilaConfig::builder(2, 4096)
            .policy(MmioPolicy {
                write_policy: WritePolicy::Async,
                ..MmioPolicy::default()
            })
            .build();
        assert_eq!(cfg.policy.low_watermark, 512);
        assert_eq!(cfg.policy.high_watermark, 1024);
    }

    #[test]
    fn explicit_watermarks_survive_and_clamp() {
        let cfg = AquilaConfig::builder(2, 4096)
            .policy(MmioPolicy {
                write_policy: WritePolicy::Async,
                low_watermark: 100,
                high_watermark: 50,
                queue_depth: 16,
                ..MmioPolicy::default()
            })
            .build();
        assert_eq!(cfg.policy.low_watermark, 100);
        assert_eq!(cfg.policy.high_watermark, 100, "clamped up to low");
        assert_eq!(cfg.policy.queue_depth, 16);
    }

    #[test]
    #[should_panic(expected = "invalid retry policy")]
    fn degenerate_retry_policy_fails_at_build() {
        let _ = AquilaConfig::builder(2, 1024)
            .policy(MmioPolicy {
                retry: RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::default()
                },
                ..MmioPolicy::default()
            })
            .build();
    }
}
