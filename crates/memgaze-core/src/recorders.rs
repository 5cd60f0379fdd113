//! Bridges between the workloads' [`LoadRecorder`] trait and the
//! Processor-Tracing stream collectors.

use memgaze_model::{FrameIndex, Ip, ModelError, Sample, ShardWriter, TraceMeta};
use memgaze_ptsim::{StreamFull, StreamSampler, StreamStats};
use memgaze_workloads::LoadRecorder;

/// Routes workload loads into the sampled PT collector.
pub struct SamplerRecorder {
    /// The wrapped sampler.
    pub sampler: StreamSampler,
}

impl SamplerRecorder {
    /// Wrap a sampler.
    pub fn new(sampler: StreamSampler) -> SamplerRecorder {
        SamplerRecorder { sampler }
    }
}

impl LoadRecorder for SamplerRecorder {
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        self.sampler.on_load(ip, addr, instrumented, packets);
    }
}

/// Routes workload loads into the full-trace collector.
pub struct FullRecorder {
    /// The wrapped collector.
    pub full: StreamFull,
}

impl FullRecorder {
    /// Wrap a full collector.
    pub fn new(full: StreamFull) -> FullRecorder {
        FullRecorder { full }
    }
}

impl LoadRecorder for FullRecorder {
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        self.full.on_load(ip, addr, instrumented, packets);
    }
}

/// Routes workload loads into the sampled collector and encodes completed
/// samples into sharded container frames as they retire, so the run never
/// holds more than one in-flight shard of decoded trace data.
pub struct StreamingRecorder {
    sampler: StreamSampler,
    writer: ShardWriter<Vec<u8>>,
    pending: Vec<Sample>,
    shard_samples: usize,
}

impl StreamingRecorder {
    /// Wrap a sampler, writing `shard_samples`-sample frames against the
    /// provisional `meta` (totals are patched by the trailer at finish).
    pub fn new(
        sampler: StreamSampler,
        meta: &TraceMeta,
        shard_samples: usize,
    ) -> StreamingRecorder {
        let writer = ShardWriter::new(Vec::new(), meta)
            .expect("writing a container header to a Vec cannot fail");
        StreamingRecorder {
            sampler,
            writer,
            pending: Vec::new(),
            shard_samples: shard_samples.max(1),
        }
    }

    /// Shard frames written so far.
    pub fn shards_written(&self) -> u64 {
        self.writer.shards()
    }

    /// Move the sampler's completed samples to `pending` and write out
    /// every full shard.
    #[cold]
    fn drain_completed(&mut self) {
        self.pending.extend(self.sampler.take_completed());
        while self.pending.len() >= self.shard_samples {
            let shard: Vec<Sample> = self.pending.drain(..self.shard_samples).collect();
            self.writer
                .write_shard(&shard)
                .expect("writing a shard frame to a Vec cannot fail");
        }
    }

    /// Flush the trailing partial sample and any undrained samples, then
    /// seal the container. Returns the encoded container bytes, the frame
    /// index sidecar, the final trace metadata, and collection stats.
    ///
    /// Sealing validates the trailer totals against the samples actually
    /// written; an inconsistency is a typed [`ModelError`], not a panic —
    /// the caller decides whether a bad recording is fatal.
    pub fn finish(
        self,
        workload: &str,
    ) -> Result<(Vec<u8>, FrameIndex, TraceMeta, StreamStats), ModelError> {
        let StreamingRecorder {
            sampler,
            mut writer,
            mut pending,
            shard_samples,
        } = self;
        let (meta, samples, stats) = sampler.finish_parts(workload);
        pending.extend(samples);
        for shard in pending.chunks(shard_samples) {
            writer
                .write_shard(shard)
                .expect("writing a shard frame to a Vec cannot fail");
        }
        let (container, index) =
            writer.finish_indexed(meta.total_loads, meta.total_instrumented_loads)?;
        Ok((container, index, meta, stats))
    }
}

impl LoadRecorder for StreamingRecorder {
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        self.sampler.on_load(ip, addr, instrumented, packets);
        if self.sampler.completed_samples() > 0 {
            self.drain_completed();
        }
    }
}

/// Fan-out to two recorders (e.g. sampled + full in a single run, so the
/// validation baseline sees the identical load stream).
pub struct TeeRecorder<A: LoadRecorder, B: LoadRecorder> {
    /// First target.
    pub a: A,
    /// Second target.
    pub b: B,
}

impl<A: LoadRecorder, B: LoadRecorder> TeeRecorder<A, B> {
    /// Tee to `a` and `b`.
    pub fn new(a: A, b: B) -> TeeRecorder<A, B> {
        TeeRecorder { a, b }
    }
}

impl<A: LoadRecorder, B: LoadRecorder> LoadRecorder for TeeRecorder<A, B> {
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        self.a.record(ip, addr, instrumented, packets);
        self.b.record(ip, addr, instrumented, packets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_ptsim::SamplerConfig;

    #[test]
    fn tee_feeds_both() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        let tee = TeeRecorder::new(
            SamplerRecorder::new(StreamSampler::new(cfg)),
            FullRecorder::new(StreamFull::unlimited()),
        );
        let mut tee = tee;
        for t in 0..1000u64 {
            tee.record(Ip(0x400), t * 64, true, 1);
        }
        let (trace, stats) = tee.a.sampler.finish("t");
        let full = tee.b.full.finish("t");
        assert_eq!(stats.total_loads, 1000);
        assert_eq!(full.accesses.len(), 1000);
        assert!(trace.num_samples() >= 9);
        // Sampled accesses are a subset of full accesses by (time, addr).
        let set: std::collections::HashSet<(u64, u64)> = full
            .accesses
            .iter()
            .map(|a| (a.time, a.addr.raw()))
            .collect();
        for a in trace.accesses() {
            assert!(set.contains(&(a.time, a.addr.raw())));
        }
    }

    #[test]
    fn streaming_recorder_container_matches_resident_trace() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        let provisional = TraceMeta::new("t", cfg.period, cfg.buffer_bytes);
        let mut resident = SamplerRecorder::new(StreamSampler::new(cfg.clone()));
        let mut streaming = StreamingRecorder::new(StreamSampler::new(cfg), &provisional, 3);
        for t in 0..5000u64 {
            let addr = (t * 37) % 4096 * 64;
            resident.record(Ip(0x400 + t % 7), addr, true, 1);
            streaming.record(Ip(0x400 + t % 7), addr, true, 1);
        }
        let (trace, res_stats) = resident.sampler.finish("t");
        assert!(streaming.shards_written() > 1);
        let (container, index, meta, stats) = streaming.finish("t").unwrap();
        assert_eq!(meta, trace.meta);
        assert_eq!(stats.total_loads, res_stats.total_loads);
        let decoded = memgaze_model::decode_sharded(&container).unwrap();
        assert_eq!(decoded, trace);
        // The sidecar matches the container it was written alongside.
        index.validate(&container).unwrap();
        assert_eq!(index.total_samples(), trace.num_samples() as u64);
    }
}
