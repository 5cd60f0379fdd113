//! The traced address space: a simulated allocator plus a static
//! access-site registry.
//!
//! Application workloads (miniVite, GAP, Darknet) run as native Rust but
//! perform their memory traffic against a [`TracedSpace`]: objects are
//! allocated at simulated addresses, and every logical load goes through
//! a registered *site* carrying the static metadata the instrumentor
//! would have produced for the corresponding instruction — function,
//! load class, source count. The space forwards each dynamic load to a
//! [`LoadRecorder`] (the PT model lives behind it) and keeps per-phase
//! execution counters for the overhead model.

use memgaze_model::{AuxAnnotations, FunctionId, Ip, IpAnnot, LoadClass, SymbolTable};
use serde::{Deserialize, Serialize};

/// Receiver of dynamic load events (the bridge to `memgaze-ptsim`).
pub trait LoadRecorder {
    /// One executed load: synthetic site ip, simulated data address,
    /// whether the site is `ptwrite`-instrumented, and its packet count.
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let _ = (ip, addr, instrumented, packets);
    }
}

/// Recorder that ignores everything (dry runs, unit tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;
impl LoadRecorder for NullRecorder {}

impl NullRecorder {
    /// Shared no-op instance.
    pub fn new() -> NullRecorder {
        NullRecorder
    }
}

/// Adapter turning a closure into a [`LoadRecorder`].
pub struct FnRecorder<F: FnMut(Ip, u64, bool, u8)>(pub F);

impl<F: FnMut(Ip, u64, bool, u8)> LoadRecorder for FnRecorder<F> {
    #[inline]
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        (self.0)(ip, addr, instrumented, packets)
    }
}

/// A registered access site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Synthetic instruction address.
    pub ip: Ip,
    /// Enclosing function, as the symbol table and annotations number it.
    pub func_id: FunctionId,
    /// Enclosing function name.
    pub func: String,
    /// Short site label ("bucket-head", "neighbor-scan", …).
    pub label: String,
    /// Static class.
    pub class: LoadClass,
    /// Two-source addressing (costs two packets).
    pub two_source: bool,
    /// Constant loads this site implies per execution (frame traffic the
    /// compression suppressed).
    pub implied_const: u32,
    /// Source line for attribution.
    pub line: u32,
}

/// Dense site identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u32);

/// One named allocation in the simulated space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Object label ("map", "remote-edges", …).
    pub label: String,
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

/// Execution counters, kept per phase and in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Total instructions (approximate: loads/stores plus ALU work).
    pub instrs: u64,
    /// `ptwrite`s the instrumented binary would execute.
    pub ptwrites: u64,
    /// Loads that carry instrumentation.
    pub instrumented_loads: u64,
}

/// A phase of execution ("graphgen", "modularity", …) for the Fig. 7
/// per-phase overhead breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Counters accumulated during the phase.
    pub counters: Counters,
}

/// Instructions charged per load beyond the load itself (address
/// arithmetic plus a consumer).
const INSTRS_PER_LOAD: u64 = 3;
/// Instructions charged per store.
const INSTRS_PER_STORE: u64 = 2;

/// What [`TracedSpace::load`] touches of a site: the arguments the
/// recorder takes, already resolved, and how often the site ran since
/// the counters were last folded.
#[derive(Debug, Clone, Copy)]
struct HotSite {
    ip: Ip,
    execs: u64,
    /// `class.is_instrumented()`, or true when compression is off.
    instrumented: bool,
    packets: u8,
}

/// A registered function: its name and how many sites it holds.
#[derive(Debug, Clone)]
struct Func {
    name: String,
    sites: u32,
}

/// The traced address space.
pub struct TracedSpace<R: LoadRecorder> {
    recorder: R,
    brk: u64,
    allocations: Vec<Allocation>,
    sites: Vec<Site>,
    /// One row per entry of `sites`, same index.
    hot: Vec<HotSite>,
    /// Indexed by [`FunctionId`], in registration order.
    funcs: Vec<Func>,
    /// Whether Constant sites are compressed away (true) or recorded
    /// (false, the "All⁺" mode).
    compress: bool,
    /// Implied Constant loads added to every subsequently registered
    /// non-Constant site — emulates O0 codegen's frame spills/reloads
    /// (κ ≈ 1 + o0_extra).
    o0_extra: u32,
    /// Every phase but the last is final; the last lacks what `hot`,
    /// `stores` and `alu` hold until [`fold`](TracedSpace::fold) adds it.
    phases: Vec<Phase>,
    /// Stores and ALU instructions executed since the last fold.
    stores: u64,
    alu: u64,
}

/// Site ips: `SITE_BASE + func_id·FUNC_STRIDE + site_in_func·4`.
const SITE_BASE: u64 = 0x40_0000;
const FUNC_STRIDE: u64 = 0x1000;
/// Data allocations start here.
const DATA_BASE: u64 = 0x10_0000_0000;

impl<R: LoadRecorder> TracedSpace<R> {
    /// A fresh space feeding `recorder`, with compression enabled.
    pub fn new(recorder: R) -> TracedSpace<R> {
        TracedSpace {
            recorder,
            brk: DATA_BASE,
            allocations: Vec::new(),
            sites: Vec::new(),
            hot: Vec::new(),
            funcs: Vec::new(),
            compress: true,
            o0_extra: 0,
            phases: vec![Phase {
                name: "main".to_string(),
                counters: Counters::default(),
            }],
            stores: 0,
            alu: 0,
        }
    }

    /// Fold what ran since the last fold into the current phase. The
    /// per-load path only bumps `execs`; everything a [`Counters`] holds
    /// is a product of that count and the site's static metadata.
    fn fold(&mut self) {
        let c = &mut self
            .phases
            .last_mut()
            .expect("phase list is never empty")
            .counters;
        for (h, s) in self.hot.iter_mut().zip(&self.sites) {
            let execs = std::mem::take(&mut h.execs);
            // Each execution plus the constant loads its block implies.
            let loads = execs * (1 + u64::from(s.implied_const));
            c.loads += loads;
            c.instrs += loads * INSTRS_PER_LOAD;
            if h.instrumented {
                let ptwrites = execs * u64::from(h.packets);
                c.ptwrites += ptwrites;
                c.instrumented_loads += execs;
                c.instrs += ptwrites; // the ptwrite instructions
            }
        }
        let stores = std::mem::take(&mut self.stores);
        c.stores += stores;
        c.instrs += stores * INSTRS_PER_STORE + std::mem::take(&mut self.alu);
    }

    /// Disable compression: Constant sites are recorded too (the
    /// uncompressed "All⁺" baseline).
    pub fn set_compress(&mut self, compress: bool) {
        self.fold();
        self.compress = compress;
        for (h, s) in self.hot.iter_mut().zip(&self.sites) {
            h.instrumented = !compress || s.class.is_instrumented();
        }
    }

    /// Emulate O0 codegen: every non-Constant site registered *after*
    /// this call implies `extra` Constant frame loads per execution
    /// (paper §VI-C: O0 compresses ≈2×, i.e. `extra = 1`).
    pub fn set_o0_extra(&mut self, extra: u32) {
        self.o0_extra = extra;
    }

    /// Begin a new phase; subsequent counters accrue to it.
    pub fn phase(&mut self, name: impl Into<String>) {
        self.fold();
        self.phases.push(Phase {
            name: name.into(),
            counters: Counters::default(),
        });
    }

    /// Allocate `bytes` of simulated memory. Small allocations pack into
    /// 64-byte-aligned bins; large ones (≥ 2 KiB) are page-aligned and
    /// followed by a guard page, mirroring how real allocators separate
    /// large objects — which is what lets the location zoom's contiguous-
    /// page runs distinguish objects (paper §IV-C2).
    pub fn alloc(&mut self, label: impl Into<String>, bytes: u64) -> u64 {
        const PAGE: u64 = 4096;
        let (base, next) = if bytes >= 2048 {
            let base = (self.brk + PAGE - 1) & !(PAGE - 1);
            let end = (base + bytes + PAGE - 1) & !(PAGE - 1);
            (base, end + PAGE) // one guard page
        } else {
            let base = self.brk;
            (base, base + ((bytes + 63) & !63))
        };
        self.allocations.push(Allocation {
            label: label.into(),
            base,
            bytes,
        });
        self.brk = next;
        base
    }

    /// All allocations, in allocation order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// The most recent allocation with the given label.
    pub fn find_allocation(&self, label: &str) -> Option<&Allocation> {
        self.allocations.iter().rev().find(|a| a.label == label)
    }

    /// Address range covering every allocation with the given label
    /// (e.g. all nodes of a chained hash map).
    pub fn label_range(&self, label: &str) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for a in self.allocations.iter().filter(|a| a.label == label) {
            lo = lo.min(a.base);
            hi = hi.max(a.base + a.bytes);
        }
        (lo < hi).then_some((lo, hi))
    }

    fn func_id(&mut self, func: &str) -> usize {
        match self.funcs.iter().position(|f| f.name == func) {
            Some(i) => i,
            None => {
                self.funcs.push(Func {
                    name: func.to_string(),
                    sites: 0,
                });
                self.funcs.len() - 1
            }
        }
    }

    /// Register an access site.
    pub fn site(
        &mut self,
        func: &str,
        label: &str,
        class: LoadClass,
        two_source: bool,
        line: u32,
    ) -> SiteId {
        let fid = self.func_id(func);
        let in_func = u64::from(self.funcs[fid].sites);
        assert!(in_func * 4 < FUNC_STRIDE, "too many sites in {func}");
        self.funcs[fid].sites += 1;
        let ip = Ip(SITE_BASE + fid as u64 * FUNC_STRIDE + in_func * 4);
        let implied_const = if class.is_instrumented() {
            self.o0_extra
        } else {
            0
        };
        self.hot.push(HotSite {
            ip,
            execs: 0,
            instrumented: !self.compress || class.is_instrumented(),
            packets: if two_source { 2 } else { 1 },
        });
        self.sites.push(Site {
            ip,
            func_id: FunctionId(fid as u32),
            func: func.to_string(),
            label: label.to_string(),
            class,
            two_source,
            implied_const,
            line,
        });
        SiteId((self.sites.len() - 1) as u32)
    }

    /// Register a site that additionally implies `n` Constant loads per
    /// execution (the frame traffic its basic block would contain).
    pub fn site_with_const(
        &mut self,
        func: &str,
        label: &str,
        class: LoadClass,
        two_source: bool,
        line: u32,
        implied_const: u32,
    ) -> SiteId {
        let id = self.site(func, label, class, two_source, line);
        self.sites[id.0 as usize].implied_const = implied_const;
        id
    }

    /// Execute one load through `site` at `addr`.
    #[inline]
    pub fn load(&mut self, site: SiteId, addr: u64) {
        let h = &mut self.hot[site.0 as usize];
        h.execs += 1;
        self.recorder.record(h.ip, addr, h.instrumented, h.packets);
    }

    /// Execute one store (counted, never traced).
    #[inline]
    pub fn store(&mut self, _addr: u64) {
        self.stores += 1;
    }

    /// Charge `n` ALU instructions to the current phase.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.alu += n;
    }

    /// Total counters: the sum over the phases.
    pub fn counters(&mut self) -> Counters {
        let mut total = Counters::default();
        for p in self.phases() {
            total.loads += p.counters.loads;
            total.stores += p.counters.stores;
            total.instrs += p.counters.instrs;
            total.ptwrites += p.counters.ptwrites;
            total.instrumented_loads += p.counters.instrumented_loads;
        }
        total
    }

    /// Per-phase counters.
    pub fn phases(&mut self) -> &[Phase] {
        self.fold();
        &self.phases
    }

    /// Build the symbol table covering every registered function.
    pub fn symbols(&self) -> SymbolTable {
        let mut t = SymbolTable::new();
        for (i, f) in self.funcs.iter().enumerate() {
            let lo = SITE_BASE + i as u64 * FUNC_STRIDE;
            t.add_function(f.name.clone(), Ip(lo), Ip(lo + FUNC_STRIDE), "workload.rs");
        }
        t
    }

    /// Build the auxiliary annotation file for the registered sites.
    pub fn annotations(&self) -> AuxAnnotations {
        let mut ax = AuxAnnotations::new();
        for s in &self.sites {
            let mut a = IpAnnot::of_class(s.class, s.func_id);
            a.two_source = s.two_source;
            a.implied_const = s.implied_const;
            a.src_line = s.line;
            ax.insert(s.ip, a);
        }
        ax
    }

    /// Access the recorder (e.g. to finish a collection).
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Mutable access to the recorder mid-run — the live watch loop
    /// drains completed samples and retunes the sampler between
    /// workload steps without ending the collection.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// The registered sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_layout() {
        let mut s = TracedSpace::new(NullRecorder);
        let a = s.alloc("a", 100);
        let b = s.alloc("b", 8);
        assert_eq!(a % 64, 0);
        assert!(b >= a + 100);
        assert_eq!(s.find_allocation("a").unwrap().bytes, 100);
        assert!(s.find_allocation("zzz").is_none());
        s.alloc("a", 100);
        let (lo, hi) = s.label_range("a").unwrap();
        assert_eq!(lo, a);
        assert!(hi > b);
    }

    #[test]
    fn sites_get_stable_ips_grouped_by_function() {
        let mut s = TracedSpace::new(NullRecorder);
        let s1 = s.site("f", "x", LoadClass::Strided, true, 1);
        let s2 = s.site("g", "y", LoadClass::Irregular, false, 2);
        let s3 = s.site("f", "z", LoadClass::Constant, false, 3);
        let sites = s.sites();
        assert_eq!(sites[s1.0 as usize].ip, Ip(SITE_BASE));
        assert_eq!(sites[s2.0 as usize].ip, Ip(SITE_BASE + FUNC_STRIDE));
        assert_eq!(sites[s3.0 as usize].ip, Ip(SITE_BASE + 4));
        // Symbols cover the functions.
        let sym = s.symbols();
        assert_eq!(sym.lookup(sites[s1.0 as usize].ip).unwrap().name, "f");
        assert_eq!(sym.lookup(sites[s3.0 as usize].ip).unwrap().name, "f");
        assert_eq!(sym.lookup(sites[s2.0 as usize].ip).unwrap().name, "g");
    }

    #[test]
    fn loads_route_to_recorder_with_metadata() {
        let mut events: Vec<(Ip, u64, bool, u8)> = Vec::new();
        {
            let rec = FnRecorder(|ip: Ip, addr: u64, inst: bool, pk: u8| {
                events.push((ip, addr, inst, pk))
            });
            let mut s = TracedSpace::new(rec);
            let strided = s.site("f", "s", LoadClass::Strided, true, 1);
            let constant = s.site("f", "c", LoadClass::Constant, false, 2);
            s.load(strided, 0x1000);
            s.load(constant, 0x2000);
        }
        assert_eq!(events.len(), 2);
        assert!(events[0].2);
        assert_eq!(events[0].3, 2);
        // Constant sites are not instrumented under compression.
        assert!(!events[1].2);
    }

    #[test]
    fn uncompressed_mode_records_constants() {
        let mut count = 0u64;
        {
            let rec = FnRecorder(|_: Ip, _: u64, inst: bool, _: u8| {
                if inst {
                    count += 1
                }
            });
            let mut s = TracedSpace::new(rec);
            s.set_compress(false);
            let c = s.site("f", "c", LoadClass::Constant, false, 1);
            s.load(c, 0x10);
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn counters_accrue_per_phase() {
        let mut s = TracedSpace::new(NullRecorder);
        let site = s.site_with_const("f", "x", LoadClass::Strided, false, 1, 2);
        s.load(site, 0x10);
        s.phase("second");
        s.load(site, 0x20);
        s.load(site, 0x30);
        s.store(0x40);
        s.alu(5);

        let phases = s.phases();
        assert_eq!(phases.len(), 2);
        // Phase 1: one load + 2 implied constants.
        assert_eq!(phases[0].counters.loads, 3);
        assert_eq!(phases[0].counters.ptwrites, 1);
        // Phase 2: two sites → 6 loads, one store.
        assert_eq!(phases[1].counters.loads, 6);
        assert_eq!(phases[1].counters.stores, 1);
        assert!(phases[1].counters.instrs >= 6 * 3 + 2 + 5);
        let t = s.counters();
        assert_eq!(t.loads, 9);
        assert_eq!(t.instrumented_loads, 3);
    }

    #[test]
    fn folded_counters_equal_per_operation_accumulation() {
        // The reference charges every operation to its phase as it
        // happens; the space defers all of it to the next fold. Phases
        // and compression flip mid-run, with and without a read between.
        let mut s = TracedSpace::new(NullRecorder);
        let meta = [
            (LoadClass::Strided, true, 2u32),
            (LoadClass::Constant, false, 0),
            (LoadClass::Irregular, false, 1),
        ];
        let sites: Vec<SiteId> = meta
            .iter()
            .map(|&(class, two, implied)| s.site_with_const("f", "x", class, two, 1, implied))
            .collect();
        let mut expect = vec![Counters::default()];
        let mut compress = true;
        let mut x = 7u64;
        for step in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = expect.last_mut().unwrap();
            match (x >> 33) % 16 {
                0 => {
                    s.phase(format!("p{step}"));
                    expect.push(Counters::default());
                }
                1 => {
                    compress = !compress;
                    s.set_compress(compress);
                }
                2 => assert_eq!(s.phases().len(), expect.len()),
                3 | 4 => {
                    s.store(0x40);
                    c.stores += 1;
                    c.instrs += INSTRS_PER_STORE;
                }
                5 => {
                    s.alu(x % 9);
                    c.instrs += x % 9;
                }
                k => {
                    let i = (k % 3) as usize;
                    s.load(sites[i], x);
                    let (class, two, implied) = meta[i];
                    let loads = 1 + u64::from(implied);
                    c.loads += loads;
                    c.instrs += loads * INSTRS_PER_LOAD;
                    if !compress || class.is_instrumented() {
                        let packets = if two { 2 } else { 1 };
                        c.ptwrites += packets;
                        c.instrumented_loads += 1;
                        c.instrs += packets;
                    }
                }
            }
        }
        let got: Vec<Counters> = s.phases().iter().map(|p| p.counters).collect();
        assert_eq!(got, expect);
        let total = s.counters();
        assert_eq!(total.loads, expect.iter().map(|c| c.loads).sum::<u64>());
        assert_eq!(total.instrs, expect.iter().map(|c| c.instrs).sum::<u64>());
    }

    #[test]
    fn annotations_reflect_sites() {
        let mut s = TracedSpace::new(NullRecorder);
        let a = s.site_with_const("f", "x", LoadClass::Strided, true, 7, 3);
        let ip = s.sites()[a.0 as usize].ip;
        let ax = s.annotations();
        let annot = ax.get(ip).unwrap();
        assert_eq!(annot.class, LoadClass::Strided);
        assert!(annot.two_source);
        assert_eq!(annot.implied_const, 3);
        assert_eq!(annot.src_line, 7);
    }
}
