//! The streaming multiprocessor: warp scheduling, instruction issue,
//! functional execution, barriers, and the CTA residency / context-switch
//! machinery at the heart of the Virtual Thread architecture.

use crate::config::{ActivePolicy, AdmissionPolicy, CoreConfig, ResidencyConfig, SwapTrigger};
use crate::cta::{CtaPhase, CtaRt};
use crate::hotspots::StallReason;
use crate::ldst::{LdstEvent, LdstUnit};
use crate::stats::RunStats;
use crate::warp::WarpRt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vt_isa::error::ExecError;
use vt_isa::exec::{self, ThreadCtx};
use vt_isa::kernel::MemImage;
use vt_isa::op::{BranchIf, MemSpace, Operand};
use vt_isa::{Instr, Kernel, Reg, WARP_SIZE};
use vt_mem::coalesce::{coalesce, shared_bank_conflicts};
use vt_mem::{MemSystem, ReqKind, SmFront};
use vt_trace::{NullSink, SwapDir, TraceEvent, TraceSink};

/// Why a warp cannot issue this cycle; used for scheduling and for the
/// idle-cycle breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    Ready,
    Done,
    Barrier,
    /// Scoreboard-blocked while global loads are outstanding.
    BlockedMem,
    /// Scoreboard-blocked on short pipeline latencies only.
    BlockedPipe,
    /// Structural: LD/ST queue full.
    LdstFull,
    /// Structural: SFU initiation interval.
    SfuBusy,
}

/// Per-cycle context for attributing *empty* SM-cycles (zero resident
/// warps) to a cause in the [`crate::stats::EmptyBreakdown`]. Computed
/// once per cycle by the engine — before the concurrent SM phase, so
/// every lane sees the same value regardless of worker count — and
/// passed by value into [`Sm::tick_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyAttr {
    /// Undispatched CTAs remained in the grid at the top of this cycle.
    pub work_left: bool,
    /// Whether this run's admission regime is bound by the *scheduling*
    /// limit for this kernel (per `vt_isa::limits::CtaBounds::limiter`
    /// under `AdmissionPolicy::SchedulingAndCapacity`; always `false`
    /// under `CapacityOnly`, where scheduling structures are virtualised).
    pub scheduling_limited: bool,
}

impl EmptyAttr {
    /// The attribution for a run with no undispatched work — what a
    /// stand-alone [`Sm::tick`] caller without a grid dispatcher wants.
    pub fn drained() -> EmptyAttr {
        EmptyAttr {
            work_left: false,
            scheduling_limited: false,
        }
    }
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// This SM's index.
    pub id: usize,
    line_bytes: u32,
    ctas: Vec<CtaRt>,
    free_cta_slots: Vec<usize>,
    warps: Vec<WarpRt>,
    free_warp_slots: Vec<usize>,
    warp_uids: Vec<u64>,

    // Capacity accounting (resident CTAs).
    resident_reg_bytes: u32,
    resident_smem_bytes: u32,
    resident_warps: u32,
    resident_ctas: u32,
    // Scheduling-structure accounting (CTAs holding an active slot,
    // including mid-swap) and actually schedulable warps.
    slot_ctas: u32,
    slot_warps: u32,
    active_phase_warps: u32,
    swapping_ctas: u32,

    sched_last: Vec<Option<usize>>,
    sched_ptr: Vec<usize>,
    sfu_free_at: u64,
    ldst: LdstUnit,
    // (ready cycle, warp slot, reg, warp uid)
    writebacks: BinaryHeap<Reverse<(u64, usize, u16, u64)>>,
    issue_list: Vec<usize>,
    /// `in_issue_list[w]` mirrors `issue_list.contains(&w)`; maintained by
    /// `rebuild_issue_list` so GTO's greedy re-pick check is O(1).
    in_issue_list: Vec<bool>,
    issue_dirty: bool,
    /// Quiescent-SM memo: a cache of last cycle's idle verdict, never
    /// checkpointed (see [`Quiescence`]).
    quiet: Option<Quiescence>,
    /// Cycles that took the quiescent fast path.
    #[cfg(test)]
    quiet_hits: u64,
    next_uid: u64,
    cta_seq: u64,
    max_simt_depth: usize,
    /// Thrash-throttle (hill-climber) state: phase-based measurement of
    /// the issue rate under "rotate" vs "hold".
    throttle_hold: bool,
    throttle_window_end: u64,
    phase_window: u32,
    phase_accum: u64,
    phases_since_probe: u32,
    window_issues: u64,
    // Issue-rate estimate per mode, scaled by 2^16: [rotate, hold].
    mode_ipc_est: [Option<u64>; 2],
    /// Global-memory functional effects recorded during [`Sm::tick_phase`]
    /// (which must not touch the shared [`MemImage`]), applied by
    /// [`Sm::apply_deferred`] in issue order at the cycle's merge point.
    deferred: Vec<DeferredAccess>,
}

/// The quiescent-SM memo. A full-evaluation cycle in which the SM issued
/// nothing and the residency step changed nothing leaves the idle verdict
/// it charged here, with the first cycle at which a *timer* could change
/// that verdict. Until then, a cycle that brings no *event* — no
/// writeback retired, no LD/ST event, no LD/ST queue movement, no
/// issue-list change — would repeat the same residency and issue steps
/// on the same state and charge the same bucket, so [`Sm::tick_phase`]
/// charges the memo instead (DESIGN.md §18). A pure cache: it is never
/// checkpointed, and a restored SM rebuilds it on its first full cycle.
#[derive(Debug, Clone, Copy)]
struct Quiescence {
    /// The `IdleBreakdown` bucket charged, named by its stall reason.
    stall: StallReason,
    /// The per-PC blame for `stall` (computed on profiled ticks only).
    blame: Option<usize>,
    /// The earliest of the SFU interval end, a swap's `done_at` and the
    /// throttle window end; the fast path holds only before it.
    wake_at: u64,
}

/// One warp global-memory instruction whose functional effect is deferred
/// to the sequential merge phase. Addresses and source operand values are
/// resolved at issue (phase A) — a warp issues at most one instruction
/// per cycle and registers are private to the warp, so no later
/// same-cycle write can change them — while the [`MemImage`]
/// read/modify/write happens at merge in `(sm_id, issue order)`, exactly
/// the order the sequential engine applies them in.
#[derive(Debug)]
struct DeferredAccess {
    wslot: usize,
    mask: u32,
    addrs: [u32; WARP_SIZE as usize],
    body: DeferredBody,
}

#[derive(Debug)]
enum DeferredBody {
    Load {
        dst: Reg,
    },
    Store {
        vals: [u32; WARP_SIZE as usize],
    },
    Atomic {
        op: vt_isa::AtomOp,
        dst: Option<Reg>,
        vals: [u32; WARP_SIZE as usize],
    },
}

impl Sm {
    /// Creates SM `id` under configuration `core`; `line_bytes` is the
    /// memory system's coalescing segment size.
    pub fn new(id: usize, core: &CoreConfig, line_bytes: u32) -> Sm {
        Sm {
            id,
            line_bytes,
            ctas: Vec::new(),
            free_cta_slots: Vec::new(),
            warps: Vec::new(),
            free_warp_slots: Vec::new(),
            warp_uids: Vec::new(),
            resident_reg_bytes: 0,
            resident_smem_bytes: 0,
            resident_warps: 0,
            resident_ctas: 0,
            slot_ctas: 0,
            slot_warps: 0,
            active_phase_warps: 0,
            swapping_ctas: 0,
            sched_last: vec![None; core.schedulers_per_sm.max(1) as usize],
            sched_ptr: vec![0; core.schedulers_per_sm.max(1) as usize],
            sfu_free_at: 0,
            ldst: LdstUnit::new(id, core.ldst_queue_depth, core.smem_latency),
            writebacks: BinaryHeap::new(),
            issue_list: Vec::new(),
            in_issue_list: Vec::new(),
            issue_dirty: true,
            quiet: None,
            #[cfg(test)]
            quiet_hits: 0,
            next_uid: 0,
            cta_seq: 0,
            max_simt_depth: 0,
            throttle_hold: false,
            throttle_window_end: 0,
            phase_window: 0,
            phase_accum: 0,
            phases_since_probe: 0,
            window_issues: 0,
            mode_ipc_est: [None, None],
            deferred: Vec::new(),
        }
    }

    // ----- admission ------------------------------------------------------

    /// Whether another CTA of `kernel` can become resident under the
    /// residency policy.
    pub fn can_admit(&self, kernel: &Kernel, core: &CoreConfig, res: &ResidencyConfig) -> bool {
        let wpc = kernel.warps_per_cta();
        if wpc > core.max_warps_per_sm {
            return false;
        }
        // Capacity limit always applies: registers and shared memory are
        // physically finite.
        if self.resident_reg_bytes + kernel.reg_bytes_per_cta() > core.regfile_bytes {
            return false;
        }
        if self.resident_smem_bytes + kernel.smem_bytes_per_cta() > core.smem_bytes {
            return false;
        }
        match res.admission {
            AdmissionPolicy::SchedulingAndCapacity => {
                self.resident_ctas < core.max_ctas_per_sm
                    && self.resident_warps + wpc <= core.max_warps_per_sm
            }
            AdmissionPolicy::CapacityOnly { max_resident_ctas } => match max_resident_ctas {
                Some(cap) => self.resident_ctas < cap,
                None => true,
            },
        }
    }

    /// Makes CTA `cta_id` of `kernel` resident, activating it immediately
    /// if an active slot is free.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_admit`] would return false.
    pub fn admit(
        &mut self,
        cta_id: u32,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        now: u64,
        stats: &mut RunStats,
    ) {
        self.admit_traced(cta_id, kernel, core, res, now, stats, &mut NullSink);
    }

    /// [`Sm::admit`] with trace instrumentation; the `NullSink`
    /// instantiation is the plain admit.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_traced<S: TraceSink>(
        &mut self,
        cta_id: u32,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        now: u64,
        stats: &mut RunStats,
        sink: &mut S,
    ) {
        assert!(
            self.can_admit(kernel, core, res),
            "admit called without can_admit"
        );
        let wpc = kernel.warps_per_cta();
        let nthreads = kernel.threads_per_cta();
        let cta_slot = match self.free_cta_slots.pop() {
            Some(s) => s,
            None => {
                self.ctas.push(CtaRt {
                    cta_id: 0,
                    phase: CtaPhase::Finished,
                    warps: Vec::new(),
                    live_warps: 0,
                    barrier_arrived: 0,
                    smem: Vec::new(),
                    reg_bytes: 0,
                    smem_bytes: 0,
                    pending_loads: 0,
                    seq: 0,
                    inactive_since: 0,
                });
                self.ctas.len() - 1
            }
        };
        let mut warp_slots = Vec::with_capacity(wpc as usize);
        for w in 0..wpc {
            let lanes = (nthreads - w * WARP_SIZE).min(WARP_SIZE);
            self.next_uid += 1;
            let warp = WarpRt::new(cta_slot, w, lanes, kernel.regs_per_thread(), self.next_uid);
            let slot = match self.free_warp_slots.pop() {
                Some(s) => {
                    self.warps[s] = warp;
                    self.warp_uids[s] = self.next_uid;
                    s
                }
                None => {
                    self.warps.push(warp);
                    self.warp_uids.push(self.next_uid);
                    self.warps.len() - 1
                }
            };
            warp_slots.push(slot);
        }
        self.cta_seq += 1;
        let cta = CtaRt {
            cta_id,
            phase: CtaPhase::Inactive { has_context: false },
            warps: warp_slots,
            live_warps: wpc,
            barrier_arrived: 0,
            smem: vec![0u32; (kernel.smem_bytes_per_cta() as usize).div_ceil(4)],
            reg_bytes: kernel.reg_bytes_per_cta(),
            smem_bytes: kernel.smem_bytes_per_cta(),
            pending_loads: 0,
            seq: self.cta_seq,
            inactive_since: now,
        };
        self.resident_reg_bytes += cta.reg_bytes;
        self.resident_smem_bytes += cta.smem_bytes;
        self.resident_warps += wpc;
        self.resident_ctas += 1;
        self.ctas[cta_slot] = cta;
        self.issue_dirty = true;
        if S::ENABLED {
            sink.emit(
                now,
                TraceEvent::CtaLaunch {
                    sm: self.id as u32,
                    cta_slot: cta_slot as u32,
                    cta_id,
                },
            );
        }
        self.try_activate(now, kernel, core, res, stats, sink);
    }

    fn active_slot_available(&self, wpc: u32, core: &CoreConfig, res: &ResidencyConfig) -> bool {
        match res.active {
            ActivePolicy::Unlimited => true,
            ActivePolicy::SchedulingLimit => {
                self.slot_ctas < core.max_ctas_per_sm
                    && self.slot_warps + wpc <= core.max_warps_per_sm
            }
        }
    }

    /// Whether an inactive CTA could make forward progress if activated.
    fn cta_ready(&self, cta: &CtaRt) -> bool {
        match cta.phase {
            CtaPhase::Inactive { has_context: false } => true,
            CtaPhase::Inactive { has_context: true } => cta.warps.iter().any(|&w| {
                let warp = &self.warps[w];
                !warp.done && !warp.waiting_barrier && warp.pending_loads == 0
            }),
            _ => false,
        }
    }

    /// Activates ready inactive CTAs while active slots are available;
    /// returns whether any was activated.
    fn try_activate<S: TraceSink>(
        &mut self,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        stats: &mut RunStats,
        sink: &mut S,
    ) -> bool {
        let wpc = kernel.warps_per_cta();
        let mut activated = false;
        loop {
            if !self.active_slot_available(wpc, core, res) {
                return activated;
            }
            // Oldest ready CTA first: partially-run CTAs drain capacity
            // sooner, fresh CTAs keep the pipeline fed.
            let candidate = self
                .ctas
                .iter()
                .enumerate()
                .filter(|(_, c)| self.cta_ready(c))
                .min_by_key(|(_, c)| c.seq)
                .map(|(i, c)| {
                    (
                        i,
                        matches!(c.phase, CtaPhase::Inactive { has_context: true }),
                    )
                });
            let Some((slot, has_context)) = candidate else {
                return activated;
            };
            activated = true;
            let n_warps = self.ctas[slot].warps.len() as u32;
            self.slot_ctas += 1;
            self.slot_warps += n_warps;
            // Every activation opens a swap-in span (zero-length for
            // instant activations), so `finish_activation` can close it
            // unconditionally.
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEvent::SwapBegin {
                        sm: self.id as u32,
                        cta_slot: slot as u32,
                        cta_id: self.ctas[slot].cta_id,
                        dir: SwapDir::In,
                        fresh: !has_context,
                    },
                );
            }
            match res.swap {
                Some(swap) => {
                    let cost = if has_context {
                        stats.swaps.swaps_in += 1;
                        let cost = u64::from(swap.restore_cycles);
                        stats
                            .swap_gap
                            .record(now.saturating_sub(self.ctas[slot].inactive_since));
                        stats.swap_duration.record(cost);
                        cost
                    } else {
                        stats.swaps.fresh_activations += 1;
                        u64::from(swap.fresh_activation_cycles)
                    };
                    if cost == 0 {
                        self.finish_activation(slot, now, sink);
                    } else {
                        self.ctas[slot].phase = CtaPhase::SwappingIn {
                            done_at: now + cost,
                        };
                        self.swapping_ctas += 1;
                    }
                }
                None => {
                    if has_context {
                        stats.swaps.swaps_in += 1;
                    } else {
                        stats.swaps.fresh_activations += 1;
                    }
                    self.finish_activation(slot, now, sink);
                }
            }
        }
    }

    fn finish_activation<S: TraceSink>(&mut self, slot: usize, now: u64, sink: &mut S) {
        self.ctas[slot].phase = CtaPhase::Active;
        self.active_phase_warps += self.ctas[slot].warps.len() as u32;
        self.issue_dirty = true;
        if S::ENABLED {
            let (sm, cta_slot, cta_id) = (self.id as u32, slot as u32, self.ctas[slot].cta_id);
            sink.emit(
                now,
                TraceEvent::SwapEnd {
                    sm,
                    cta_slot,
                    cta_id,
                    dir: SwapDir::In,
                },
            );
            sink.emit(
                now,
                TraceEvent::CtaActivate {
                    sm,
                    cta_slot,
                    cta_id,
                },
            );
        }
    }

    /// Completes timed swap transitions and evaluates the swap trigger.
    /// Returns whether any CTA changed phase; a throttle-window roll alone
    /// does not count, since the window end is a fast-path wake deadline.
    #[allow(clippy::too_many_arguments)]
    fn update_residency<S: TraceSink>(
        &mut self,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        stats: &mut RunStats,
        sink: &mut S,
    ) -> bool {
        let Some(swap) = res.swap else {
            // No swapping: still activate parked CTAs when slots free up
            // (e.g. after a CTA finished).
            return self.issue_dirty && self.try_activate(now, kernel, core, res, stats, sink);
        };

        // 1. Complete in-flight transitions.
        let mut changed = false;
        for slot in 0..self.ctas.len() {
            match self.ctas[slot].phase {
                CtaPhase::SwappingOut { done_at } if done_at <= now => {
                    changed = true;
                    // The slot was already released when the save started.
                    self.ctas[slot].phase = CtaPhase::Inactive { has_context: true };
                    self.ctas[slot].inactive_since = now;
                    self.swapping_ctas -= 1;
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEvent::SwapEnd {
                                sm: self.id as u32,
                                cta_slot: slot as u32,
                                cta_id: self.ctas[slot].cta_id,
                                dir: SwapDir::Out,
                            },
                        );
                    }
                }
                CtaPhase::SwappingIn { done_at } if done_at <= now => {
                    changed = true;
                    self.swapping_ctas -= 1;
                    self.finish_activation(slot, now, sink);
                }
                _ => {}
            }
        }

        // 2. Fill any free active slots with ready CTAs.
        changed |= self.try_activate(now, kernel, core, res, stats, sink);

        // 3. Thrash feedback: hill-climb between "rotate" (normal VT) and
        //    "hold" (stable active set) on the measured issue rate.
        if let Some(th) = swap.throttle {
            if now >= self.throttle_window_end {
                let window = u64::from(th.window_cycles.max(1));
                let phase_len = th.phase_windows.max(2);
                if self.throttle_window_end > 0 {
                    // The first window of a phase inherits the previous
                    // mode's stall pattern; record the rest.
                    if self.phase_window >= 1 {
                        self.phase_accum += (self.window_issues << 16) / window;
                    }
                    self.phase_window += 1;
                    if self.phase_window >= phase_len {
                        let measured = self.phase_accum / u64::from(phase_len - 1);
                        let slot = usize::from(self.throttle_hold);
                        // Light EWMA so one noisy phase cannot flip modes
                        // permanently.
                        self.mode_ipc_est[slot] = Some(
                            self.mode_ipc_est[slot].map_or(measured, |old| (old + measured) / 2),
                        );
                        self.phase_accum = 0;
                        self.phase_window = 0;
                        self.phases_since_probe += 1;
                        self.throttle_hold = match (self.mode_ipc_est[0], self.mode_ipc_est[1]) {
                            (None, _) => false,
                            (Some(_), None) => true,
                            (Some(rotate), Some(hold)) => {
                                // Hysteresis: rotation is the architecture's
                                // default; holding must win by a clear margin.
                                let hold_wins = hold > rotate + rotate / 8;
                                if self.phases_since_probe >= th.probe_every_phases.max(2) {
                                    self.phases_since_probe = 0;
                                    !hold_wins // re-probe the loser
                                } else {
                                    hold_wins
                                }
                            }
                        };
                    }
                }
                self.window_issues = 0;
                self.throttle_window_end = now + window;
            }
            if self.throttle_hold {
                return changed;
            }
        }

        // 4. Trigger: swap out stalled active CTAs, one per ready
        //    replacement waiting in the inactive pool. The pool is counted
        //    only once some active CTA meets the trigger, before any swap,
        //    so the decisions match counting it up front.
        if swap.trigger == SwapTrigger::Never {
            return changed;
        }
        let mut ready_replacements = None;
        let mut swapped_any = false;
        for slot in 0..self.ctas.len() {
            if ready_replacements == Some(0) {
                break;
            }
            if self.ctas[slot].phase != CtaPhase::Active {
                continue;
            }
            if self.swap_trigger_met(slot, swap.trigger, kernel) {
                let left = ready_replacements
                    .get_or_insert_with(|| self.ctas.iter().filter(|c| self.cta_ready(c)).count());
                if *left == 0 {
                    break;
                }
                *left -= 1;
                let n_warps = self.ctas[slot].warps.len() as u32;
                self.ctas[slot].phase = CtaPhase::SwappingOut {
                    done_at: now + u64::from(swap.save_cycles),
                };
                // Release the slot immediately: the incoming CTA's restore
                // overlaps with this save through the context buffer.
                self.slot_ctas -= 1;
                self.slot_warps -= n_warps;
                self.active_phase_warps -= n_warps;
                self.swapping_ctas += 1;
                self.issue_dirty = true;
                stats.swaps.swaps_out += 1;
                stats.swap_duration.record(u64::from(swap.save_cycles));
                if S::ENABLED {
                    let (sm, cta_slot, cta_id) =
                        (self.id as u32, slot as u32, self.ctas[slot].cta_id);
                    sink.emit(
                        now,
                        TraceEvent::CtaDeactivate {
                            sm,
                            cta_slot,
                            cta_id,
                        },
                    );
                    sink.emit(
                        now,
                        TraceEvent::SwapBegin {
                            sm,
                            cta_slot,
                            cta_id,
                            dir: SwapDir::Out,
                            fresh: false,
                        },
                    );
                }
                swapped_any = true;
            }
        }
        if swapped_any {
            // Refill the freed slots in the same cycle (overlapped swap).
            self.try_activate(now, kernel, core, res, stats, sink);
        }
        changed || swapped_any
    }

    fn swap_trigger_met(&self, cta_slot: usize, trigger: SwapTrigger, kernel: &Kernel) -> bool {
        let cta = &self.ctas[cta_slot];
        let mut any_mem_stalled = false;
        let mut all_stalled = true;
        for &wslot in &cta.warps {
            let w = &self.warps[wslot];
            if w.done {
                continue;
            }
            if w.waiting_barrier {
                continue; // stalled, but not the memory kind
            }
            // Only *long-latency* stalls (L1 misses in flight) qualify;
            // a warp waiting out an L1 hit will resume within ~20 cycles
            // and swapping for it would thrash.
            let blocked_on_mem = w.long_pending_loads > 0
                && !w.scoreboard.can_issue(kernel.program().fetch(w.stack.pc()));
            if blocked_on_mem {
                any_mem_stalled = true;
            } else {
                all_stalled = false;
            }
        }
        match trigger {
            SwapTrigger::AllWarpsStalled => any_mem_stalled && all_stalled,
            SwapTrigger::AnyWarpStalled => any_mem_stalled,
            SwapTrigger::Never => false,
        }
    }

    // ----- per-cycle operation --------------------------------------------

    /// Advances the SM one cycle against the whole memory system and
    /// image (sequential compatibility path): runs the per-SM phase,
    /// flushes this SM's request outbox, and applies the deferred
    /// functional memory effects immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a warp traps (out-of-range or unaligned
    /// access).
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        mem: &mut MemSystem,
        image: &mut MemImage,
        stats: &mut RunStats,
        attr: EmptyAttr,
    ) -> Result<(), ExecError> {
        let id = self.id;
        let phase = if stats.hotspots.is_some() {
            self.tick_phase::<NullSink, true>(
                now,
                kernel,
                core,
                res,
                mem.front_mut(id),
                stats,
                &mut NullSink,
                attr,
            )
        } else {
            self.tick_phase::<NullSink, false>(
                now,
                kernel,
                core,
                res,
                mem.front_mut(id),
                stats,
                &mut NullSink,
                attr,
            )
        };
        mem.flush_outbox(id);
        self.apply_deferred(image)?;
        phase
    }

    /// The per-SM half of a cycle: writebacks, LD/ST events, residency,
    /// issue and stats. Touches only this SM's state plus its private
    /// memory front-end, so distinct SMs may run this phase on distinct
    /// threads. Global-memory functional effects are *recorded*, not
    /// applied — the engine must call [`Sm::apply_deferred`] afterwards,
    /// in SM order, to keep the shared [`MemImage`] bit-identical to the
    /// sequential schedule. With [`NullSink`] this monomorphizes to the
    /// untraced fast path, and with `PROFILED = false` every per-PC
    /// hotspot-profiling branch compiles out — unprofiled runs pay
    /// nothing and stay bit-identical.
    ///
    /// `PROFILED = true` requires `stats.hotspots` to be populated (the
    /// engine sets it up at construction when `CoreConfig::profile` is
    /// on); the recording calls are no-ops otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a warp traps on a fault detectable from
    /// per-SM state (unaligned or shared-memory out-of-range accesses);
    /// global out-of-range faults surface from [`Sm::apply_deferred`].
    #[allow(clippy::too_many_arguments)]
    pub fn tick_phase<S: TraceSink, const PROFILED: bool>(
        &mut self,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        front: &mut SmFront,
        stats: &mut RunStats,
        sink: &mut S,
        attr: EmptyAttr,
    ) -> Result<(), ExecError> {
        // 1. Short-latency writebacks.
        let mut woke = false;
        while let Some(&Reverse((ready, wslot, reg, uid))) = self.writebacks.peek() {
            if ready > now {
                break;
            }
            self.writebacks.pop();
            woke = true;
            if self.warp_uids[wslot] == uid {
                self.warps[wslot].scoreboard.clear(Reg(reg));
            }
        }

        // 2. Memory events (shared latency, global responses, long-stall
        //    notifications). Events may outlive their CTA — a warp can
        //    exit with loads in flight — so uids filter stale records.
        let queued = self.ldst.queue_len();
        let events = self.ldst.tick_traced(now, front, sink);
        woke |= !events.is_empty() || self.ldst.queue_len() != queued;
        for event in events {
            match event {
                LdstEvent::Completed(c) => {
                    // Latency is observed per issue site, before the uid
                    // filter: the round trip happened even if the issuing
                    // warp's slot has since been recycled.
                    if PROFILED {
                        if let Some(h) = stats.hotspots.as_mut() {
                            h.record_mem_latency(c.pc as usize, now.saturating_sub(c.issued_at));
                        }
                    }
                    if self.warp_uids[c.warp_slot] != c.warp_uid {
                        continue;
                    }
                    let w = &mut self.warps[c.warp_slot];
                    if let Some(dst) = c.dst {
                        w.scoreboard.clear(dst);
                    }
                    if c.was_global_load {
                        w.pending_loads -= 1;
                        if c.was_long {
                            w.long_pending_loads -= 1;
                        }
                        let cta = &mut self.ctas[w.cta_slot];
                        cta.pending_loads -= 1;
                    }
                }
                LdstEvent::MissObserved {
                    warp_slot,
                    warp_uid,
                } => {
                    if self.warp_uids[warp_slot] == warp_uid {
                        self.warps[warp_slot].long_pending_loads += 1;
                    }
                }
            }
        }

        // Quiescent fast path: nothing arrived that could wake a stalled
        // SM, so steps 3-4 would repeat last cycle's verdict on the same
        // state. Charge the memo instead.
        match self.quiet {
            Some(q) if !woke && !self.issue_dirty && self.resident_warps > 0 && now < q.wake_at => {
                #[cfg(debug_assertions)]
                self.check_quiescence::<PROFILED>(q, now, kernel, core, res);
                #[cfg(test)]
                {
                    self.quiet_hits += 1;
                }
                self.sample_occupancy(stats);
                charge_idle::<PROFILED>(stats, q.stall, q.blame);
                return Ok(());
            }
            _ => self.quiet = None,
        }

        // 3. CTA residency: swap completions, trigger, activations.
        let residency_changed = self.update_residency(now, kernel, core, res, stats, sink);

        // 4. Issue.
        if self.issue_dirty {
            self.rebuild_issue_list();
        }
        let schedulers = self.sched_last.len();
        let mut issued = 0u32;
        let mut first_issue_pc = None;
        for s in 0..schedulers {
            if let Some(wslot) = self.pick_warp(s, now, kernel, core) {
                if PROFILED && first_issue_pc.is_none() {
                    // Read before issue: the stack advances on issue.
                    first_issue_pc = Some(self.warps[wslot].stack.pc());
                }
                self.issue_warp::<S, PROFILED>(wslot, s, now, kernel, core, res, stats, sink)?;
                self.sched_last[s] = Some(wslot);
                issued += 1;
            }
        }

        self.window_issues += u64::from(issued);

        // 5. Stats. A stalled cycle that changed no residency is
        //    quiescent: memoise its verdict for the fast path.
        let stalled =
            self.accumulate_stats::<PROFILED>(now, issued, first_issue_pc, kernel, stats, attr);
        if let (Some((stall, blame)), false) = (stalled, residency_changed) {
            debug_assert!(
                !self.issue_dirty,
                "quiescent cycle left the issue list dirty"
            );
            self.quiet = Some(Quiescence {
                stall,
                blame,
                wake_at: self.wake_deadline(now, res),
            });
        }
        Ok(())
    }

    /// The first cycle after `now` at which a timer, rather than an
    /// event, can change a stalled SM's verdict: the SFU interval ending
    /// (`SfuBusy` readiness), a swap completing, or the throttle window
    /// rolling over.
    fn wake_deadline(&self, now: u64, res: &ResidencyConfig) -> u64 {
        let mut at = if self.sfu_free_at > now {
            self.sfu_free_at
        } else {
            u64::MAX
        };
        if self.swapping_ctas > 0 {
            for cta in &self.ctas {
                if let CtaPhase::SwappingIn { done_at } | CtaPhase::SwappingOut { done_at } =
                    cta.phase
                {
                    at = at.min(done_at);
                }
            }
        }
        if res.swap.is_some_and(|s| s.throttle.is_some()) {
            at = at.min(self.throttle_window_end);
        }
        at
    }

    /// Debug-build shadow of the quiescent fast path: re-derives, without
    /// mutating anything, what the skipped residency, issue and stats
    /// steps would have done this cycle, and asserts the memo matches.
    #[cfg(debug_assertions)]
    fn check_quiescence<const PROFILED: bool>(
        &self,
        q: Quiescence,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
    ) {
        debug_assert!(
            !self.residency_would_change(now, kernel, core, res),
            "SM {} cycle {now}: quiescent fast path skipped a residency change",
            self.id
        );
        debug_assert!(
            self.issue_list
                .iter()
                .all(|&w| self.readiness(w, now, kernel) != Readiness::Ready),
            "SM {} cycle {now}: quiescent fast path skipped an issuable warp",
            self.id
        );
        debug_assert_eq!(
            self.classify_stall::<PROFILED>(now, kernel),
            (q.stall, q.blame),
            "SM {} cycle {now}: quiescent fast path charged a stale verdict",
            self.id
        );
    }

    /// Whether [`Sm::update_residency`] would change a CTA's phase at
    /// `now` — the pure predicate behind its mutations.
    #[cfg(debug_assertions)]
    fn residency_would_change(
        &self,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
    ) -> bool {
        let any_ready = || self.ctas.iter().any(|c| self.cta_ready(c));
        let activation =
            self.active_slot_available(kernel.warps_per_cta(), core, res) && any_ready();
        let Some(swap) = res.swap else {
            return self.issue_dirty && activation;
        };
        let transition_due = self.ctas.iter().any(|c| {
            matches!(c.phase, CtaPhase::SwappingIn { done_at } | CtaPhase::SwappingOut { done_at }
                if done_at <= now)
        });
        if transition_due || activation {
            return true;
        }
        if swap.throttle.is_some() {
            if now >= self.throttle_window_end {
                return true;
            }
            if self.throttle_hold {
                return false;
            }
        }
        swap.trigger != SwapTrigger::Never
            && any_ready()
            && (0..self.ctas.len()).any(|slot| {
                self.ctas[slot].phase == CtaPhase::Active
                    && self.swap_trigger_met(slot, swap.trigger, kernel)
            })
    }

    fn rebuild_issue_list(&mut self) {
        for &w in &self.issue_list {
            self.in_issue_list[w] = false;
        }
        self.issue_list.clear();
        self.in_issue_list.resize(self.warps.len(), false);
        for cta in &self.ctas {
            if cta.is_active() {
                for &w in &cta.warps {
                    if !self.warps[w].done {
                        self.issue_list.push(w);
                        self.in_issue_list[w] = true;
                    }
                }
            }
        }
        // Age order gives the GTO scheduler its "oldest" notion and makes
        // LRR rotation deterministic.
        let warps = &self.warps;
        self.issue_list.sort_by_key(|&w| warps[w].age);
        self.issue_dirty = false;
    }

    fn readiness(&self, wslot: usize, now: u64, kernel: &Kernel) -> Readiness {
        let w = &self.warps[wslot];
        if w.done {
            return Readiness::Done;
        }
        if w.waiting_barrier {
            return Readiness::Barrier;
        }
        let instr = kernel.program().fetch(w.stack.pc());
        if !w.scoreboard.can_issue(instr) {
            return if w.pending_loads > 0 {
                Readiness::BlockedMem
            } else {
                Readiness::BlockedPipe
            };
        }
        if instr.is_mem() && !self.ldst.has_space() {
            return Readiness::LdstFull;
        }
        if matches!(instr, Instr::Sfu { .. }) && now < self.sfu_free_at {
            return Readiness::SfuBusy;
        }
        Readiness::Ready
    }

    /// Picks a warp for scheduler `s` (warps are statically partitioned
    /// across schedulers by slot index). Allocation-free: this runs once
    /// per scheduler per cycle.
    fn pick_warp(
        &mut self,
        s: usize,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
    ) -> Option<usize> {
        let schedulers = self.sched_last.len();
        let in_partition = |w: usize| w % schedulers == s;
        match core.scheduler {
            crate::config::SchedPolicy::Gto => {
                if let Some(last) = self.sched_last[s] {
                    if in_partition(last)
                        && self.in_issue_list[last]
                        && self.readiness(last, now, kernel) == Readiness::Ready
                    {
                        return Some(last);
                    }
                }
                // Oldest ready: the issue list is already age-sorted.
                self.issue_list
                    .iter()
                    .copied()
                    .filter(|&w| in_partition(w))
                    .find(|&w| self.readiness(w, now, kernel) == Readiness::Ready)
            }
            crate::config::SchedPolicy::Lrr => {
                let n = self.issue_list.iter().filter(|&&w| in_partition(w)).count();
                if n == 0 {
                    return None;
                }
                let start = self.sched_ptr[s] % n;
                // Rotate through the partition: positions start.. then 0..start.
                let mut pick = None;
                for round in 0..2 {
                    let mut idx = 0;
                    for &w in &self.issue_list {
                        if !in_partition(w) {
                            continue;
                        }
                        let in_range = if round == 0 {
                            idx >= start
                        } else {
                            idx < start
                        };
                        if in_range && self.readiness(w, now, kernel) == Readiness::Ready {
                            pick = Some((idx, w));
                            break;
                        }
                        idx += 1;
                    }
                    if pick.is_some() {
                        break;
                    }
                }
                let (pos, w) = pick?;
                self.sched_ptr[s] = (pos + 1) % n;
                Some(w)
            }
        }
    }

    // ----- instruction execution --------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn issue_warp<S: TraceSink, const PROFILED: bool>(
        &mut self,
        wslot: usize,
        sched: usize,
        now: u64,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        stats: &mut RunStats,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        let pc = self.warps[wslot].stack.pc();
        let instr = *kernel.program().fetch(pc);
        let mask = self.warps[wslot].stack.active_mask();
        stats.warp_instrs += 1;
        stats.thread_instrs += u64::from(mask.count_ones());
        if PROFILED {
            if let Some(h) = stats.hotspots.as_mut() {
                h.record_warp_issue(pc, mask.count_ones());
            }
        }
        if S::ENABLED {
            sink.emit(
                now,
                TraceEvent::WarpIssue {
                    sm: self.id as u32,
                    sched: sched as u32,
                    warp_slot: wslot as u32,
                    pc: pc as u32,
                },
            );
        }

        match instr {
            Instr::Alu { op, dst, a, b } => {
                self.exec_lanes(wslot, kernel, mask, |regs, ctx| {
                    let va = exec::resolve(a, regs, ctx);
                    let vb = exec::resolve(b, regs, ctx);
                    Some((dst, exec::eval_alu(op, va, vb)))
                });
                self.retire_alu(wslot, dst, now + u64::from(core.alu_latency));
                self.advance(wslot);
            }
            Instr::Mad { dst, a, b, c } => {
                self.exec_lanes(wslot, kernel, mask, |regs, ctx| {
                    let (va, vb, vc) = (
                        exec::resolve(a, regs, ctx),
                        exec::resolve(b, regs, ctx),
                        exec::resolve(c, regs, ctx),
                    );
                    Some((dst, exec::eval_mad(va, vb, vc)))
                });
                self.retire_alu(wslot, dst, now + u64::from(core.alu_latency));
                self.advance(wslot);
            }
            Instr::Ffma { dst, a, b, c } => {
                self.exec_lanes(wslot, kernel, mask, |regs, ctx| {
                    let (va, vb, vc) = (
                        exec::resolve(a, regs, ctx),
                        exec::resolve(b, regs, ctx),
                        exec::resolve(c, regs, ctx),
                    );
                    Some((dst, exec::eval_ffma(va, vb, vc)))
                });
                self.retire_alu(wslot, dst, now + u64::from(core.alu_latency));
                self.advance(wslot);
            }
            Instr::Sfu { op, dst, a } => {
                self.exec_lanes(wslot, kernel, mask, |regs, ctx| {
                    Some((dst, exec::eval_sfu(op, exec::resolve(a, regs, ctx))))
                });
                self.retire_alu(wslot, dst, now + u64::from(core.sfu_latency));
                self.sfu_free_at = now + u64::from(core.sfu_init_interval);
                self.advance(wslot);
            }
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                self.exec_mem::<S, PROFILED>(
                    wslot,
                    now,
                    pc,
                    kernel,
                    core,
                    mask,
                    space,
                    addr,
                    offset,
                    MemOp::Load { dst },
                    stats,
                    sink,
                )?;
                self.advance(wslot);
            }
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => {
                self.exec_mem::<S, PROFILED>(
                    wslot,
                    now,
                    pc,
                    kernel,
                    core,
                    mask,
                    space,
                    addr,
                    offset,
                    MemOp::Store { src },
                    stats,
                    sink,
                )?;
                self.advance(wslot);
            }
            Instr::Atom {
                op,
                dst,
                addr,
                offset,
                val,
            } => {
                self.exec_mem::<S, PROFILED>(
                    wslot,
                    now,
                    pc,
                    kernel,
                    core,
                    mask,
                    MemSpace::Global,
                    addr,
                    offset,
                    MemOp::Atomic { op, dst, val },
                    stats,
                    sink,
                )?;
                self.advance(wslot);
            }
            Instr::Bar => {
                stats.barriers += 1;
                self.warps[wslot].waiting_barrier = true;
                self.warps[wslot].barrier_since = now;
                self.warps[wslot].stack.advance();
                let cta_slot = self.warps[wslot].cta_slot;
                self.ctas[cta_slot].barrier_arrived += 1;
                if S::ENABLED {
                    sink.emit(
                        now,
                        TraceEvent::BarrierArrive {
                            sm: self.id as u32,
                            cta_slot: cta_slot as u32,
                            warp_slot: wslot as u32,
                        },
                    );
                }
                self.check_barrier_release(cta_slot, now, stats, sink);
                self.issue_dirty = true;
            }
            Instr::Bra { target } => {
                self.warps[wslot].stack.jump(target);
                self.check_done(wslot, kernel, core, res, now, stats, sink);
            }
            Instr::BraCond {
                pred,
                when,
                target,
                reconv,
            } => {
                let mut taken = 0u32;
                {
                    let w = &self.warps[wslot];
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let ctx = thread_ctx(w, lane, kernel, &self.ctas);
                        let v = exec::resolve(pred, w.lane_regs(lane), &ctx);
                        let t = match when {
                            BranchIf::NonZero => v != 0,
                            BranchIf::Zero => v == 0,
                        };
                        if t {
                            taken |= 1 << lane;
                        }
                    }
                }
                let divergent = self.warps[wslot].stack.branch(taken, target, reconv);
                if divergent {
                    stats.divergent_branches += 1;
                }
                if PROFILED {
                    if let Some(h) = stats.hotspots.as_mut() {
                        h.record_branch(pc, divergent);
                    }
                }
            }
            Instr::Exit => {
                self.warps[wslot].stack.exit();
                self.check_done(wslot, kernel, core, res, now, stats, sink);
            }
        }
        Ok(())
    }

    /// Runs `f` over every active lane, writing its result register.
    fn exec_lanes(
        &mut self,
        wslot: usize,
        kernel: &Kernel,
        mask: u32,
        mut f: impl FnMut(&[u32], &ThreadCtx) -> Option<(Reg, u32)>,
    ) {
        let ctas = &self.ctas;
        let w = &mut self.warps[wslot];
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let ctx = thread_ctx(w, lane, kernel, ctas);
            if let Some((dst, v)) = f(w.lane_regs(lane), &ctx) {
                w.set_reg(lane, dst.0, v);
            }
        }
    }

    fn retire_alu(&mut self, wslot: usize, dst: Reg, ready: u64) {
        self.warps[wslot].scoreboard.set_pending(dst);
        self.writebacks
            .push(Reverse((ready, wslot, dst.0, self.warp_uids[wslot])));
    }

    fn advance(&mut self, wslot: usize) {
        self.warps[wslot].stack.advance();
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_mem<S: TraceSink, const PROFILED: bool>(
        &mut self,
        wslot: usize,
        now: u64,
        pc: usize,
        kernel: &Kernel,
        core: &CoreConfig,
        mask: u32,
        space: MemSpace,
        addr: Operand,
        offset: i32,
        op: MemOp,
        stats: &mut RunStats,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        // Compute lane addresses and resolve source operand values now;
        // the LD/ST unit and memory system model only the timing.
        // Shared-memory effects (per-CTA, per-SM state) also apply now,
        // but global-memory effects are *recorded* and applied by
        // [`Sm::apply_deferred`] at the cycle's ordered merge, so this
        // phase never touches state shared between SMs.
        let mut addrs = [0u32; WARP_SIZE as usize];
        let mut vals = [0u32; WARP_SIZE as usize];
        {
            let (warps, ctas) = (&mut self.warps, &mut self.ctas);
            let w = &mut warps[wslot];
            let cta = &mut ctas[w.cta_slot];
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let ctx = ThreadCtx {
                    tid: w.first_tid + lane,
                    ctaid: cta.cta_id,
                    ntid: kernel.threads_per_cta(),
                    ncta: kernel.num_ctas(),
                };
                let a = exec::resolve(addr, w.lane_regs(lane), &ctx).wrapping_add(offset as u32);
                if !a.is_multiple_of(4) {
                    return Err(ExecError::Unaligned { addr: a });
                }
                addrs[lane as usize] = a;
                match op {
                    MemOp::Load { dst } => {
                        if space == MemSpace::Shared {
                            let v = *cta
                                .smem
                                .get((a / 4) as usize)
                                .ok_or(ExecError::SharedOutOfRange { addr: a })?;
                            w.set_reg(lane, dst.0, v);
                        }
                    }
                    MemOp::Store { src } => {
                        let v = exec::resolve(src, w.lane_regs(lane), &ctx);
                        match space {
                            MemSpace::Global => vals[lane as usize] = v,
                            MemSpace::Shared => {
                                let word = cta
                                    .smem
                                    .get_mut((a / 4) as usize)
                                    .ok_or(ExecError::SharedOutOfRange { addr: a })?;
                                *word = v;
                            }
                        }
                    }
                    MemOp::Atomic { val, .. } => {
                        vals[lane as usize] = exec::resolve(val, w.lane_regs(lane), &ctx);
                    }
                }
            }
        }
        if space == MemSpace::Global {
            let body = match op {
                MemOp::Load { dst } => DeferredBody::Load { dst },
                MemOp::Store { .. } => DeferredBody::Store { vals },
                MemOp::Atomic { op, dst, .. } => DeferredBody::Atomic { op, dst, vals },
            };
            self.deferred.push(DeferredAccess {
                wslot,
                mask,
                addrs,
                body,
            });
        }

        // Timing side.
        match space {
            MemSpace::Shared => {
                let rounds = shared_bank_conflicts(&addrs, mask, core.smem_banks);
                if PROFILED {
                    if let Some(h) = stats.hotspots.as_mut() {
                        h.record_smem(pc, u64::from(rounds));
                    }
                }
                let dst = match op {
                    MemOp::Load { dst } => {
                        self.warps[wslot].scoreboard.set_pending(dst);
                        Some(dst)
                    }
                    _ => None,
                };
                self.ldst
                    .push_shared(wslot, self.warp_uids[wslot], rounds, dst, pc as u32, now);
            }
            MemSpace::Global => {
                let lines = coalesce(&addrs, mask, self.line_bytes);
                if PROFILED {
                    if let Some(h) = stats.hotspots.as_mut() {
                        h.record_coalesce(pc, lines.len() as u64);
                    }
                }
                if S::ENABLED {
                    let kind = match op {
                        MemOp::Load { .. } => ReqKind::Load,
                        MemOp::Store { .. } => ReqKind::Store,
                        MemOp::Atomic { .. } => ReqKind::Atomic,
                    };
                    sink.emit(
                        now,
                        TraceEvent::Coalesce {
                            sm: self.id as u32,
                            warp_slot: wslot as u32,
                            kind: kind.trace_kind(),
                            lines: lines.len() as u32,
                        },
                    );
                }
                match op {
                    MemOp::Load { dst } => {
                        self.warps[wslot].scoreboard.set_pending(dst);
                        self.warps[wslot].pending_loads += 1;
                        let cta_slot = self.warps[wslot].cta_slot;
                        self.ctas[cta_slot].pending_loads += 1;
                        self.ldst.push_global(
                            wslot,
                            self.warp_uids[wslot],
                            lines,
                            ReqKind::Load,
                            Some(dst),
                            pc as u32,
                            now,
                        );
                    }
                    MemOp::Store { .. } => {
                        self.ldst.push_global(
                            wslot,
                            self.warp_uids[wslot],
                            lines,
                            ReqKind::Store,
                            None,
                            pc as u32,
                            now,
                        );
                    }
                    MemOp::Atomic { dst, .. } => {
                        if let Some(d) = dst {
                            self.warps[wslot].scoreboard.set_pending(d);
                        }
                        self.warps[wslot].pending_loads += 1;
                        let cta_slot = self.warps[wslot].cta_slot;
                        self.ctas[cta_slot].pending_loads += 1;
                        self.ldst.push_global(
                            wslot,
                            self.warp_uids[wslot],
                            lines,
                            ReqKind::Atomic,
                            dst,
                            pc as u32,
                            now,
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies the global-memory functional effects recorded by this
    /// cycle's [`Sm::tick_phase`] to the shared image, in issue order.
    /// The engine calls this once per SM per cycle, in SM order, before
    /// dispatch — which is exactly the order the fully sequential engine
    /// interleaved these effects, so the image (and every value a later
    /// load observes) is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::GlobalOutOfRange`] when a recorded access
    /// falls outside the image — the sequential engine's trap, surfacing
    /// one merge step later.
    pub fn apply_deferred(&mut self, image: &mut MemImage) -> Result<(), ExecError> {
        let deferred = std::mem::take(&mut self.deferred);
        let mut result = Ok(());
        'outer: for acc in &deferred {
            let w = &mut self.warps[acc.wslot];
            let mut m = acc.mask;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let a = acc.addrs[lane as usize];
                match acc.body {
                    DeferredBody::Load { dst } => match image.load(a) {
                        Some(v) => w.set_reg(lane, dst.0, v),
                        None => {
                            result = Err(ExecError::GlobalOutOfRange { addr: a });
                            break 'outer;
                        }
                    },
                    DeferredBody::Store { ref vals } => {
                        if !image.store(a, vals[lane as usize]) {
                            result = Err(ExecError::GlobalOutOfRange { addr: a });
                            break 'outer;
                        }
                    }
                    DeferredBody::Atomic { op, dst, ref vals } => match image.load(a) {
                        Some(old) => {
                            image.store(a, exec::eval_atom(op, old, vals[lane as usize]));
                            if let Some(d) = dst {
                                w.set_reg(lane, d.0, old);
                            }
                        }
                        None => {
                            result = Err(ExecError::GlobalOutOfRange { addr: a });
                            break 'outer;
                        }
                    },
                }
            }
        }
        // Hand the buffer back so its capacity is reused next cycle.
        let mut deferred = deferred;
        deferred.clear();
        self.deferred = deferred;
        result
    }

    fn check_barrier_release<S: TraceSink>(
        &mut self,
        cta_slot: usize,
        now: u64,
        stats: &mut RunStats,
        sink: &mut S,
    ) {
        let cta = &mut self.ctas[cta_slot];
        if cta.live_warps > 0 && cta.barrier_arrived >= cta.live_warps {
            cta.barrier_arrived = 0;
            for &w in &cta.warps.clone() {
                if self.warps[w].waiting_barrier {
                    self.warps[w].waiting_barrier = false;
                    stats
                        .barrier_wait
                        .record(now.saturating_sub(self.warps[w].barrier_since));
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEvent::BarrierRelease {
                                sm: self.id as u32,
                                cta_slot: cta_slot as u32,
                                warp_slot: w as u32,
                            },
                        );
                    }
                }
            }
            self.issue_dirty = true;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_done<S: TraceSink>(
        &mut self,
        wslot: usize,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        now: u64,
        stats: &mut RunStats,
        sink: &mut S,
    ) {
        if !self.warps[wslot].stack.is_done() || self.warps[wslot].done {
            return;
        }
        self.warps[wslot].done = true;
        self.max_simt_depth = self.max_simt_depth.max(self.warps[wslot].stack.max_depth());
        let cta_slot = self.warps[wslot].cta_slot;
        self.ctas[cta_slot].live_warps -= 1;
        self.issue_dirty = true;
        if self.ctas[cta_slot].live_warps == 0 {
            self.finish_cta(cta_slot, kernel, core, res, now, stats, sink);
        } else {
            // Remaining warps may all be at the barrier now.
            self.check_barrier_release(cta_slot, now, stats, sink);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_cta<S: TraceSink>(
        &mut self,
        cta_slot: usize,
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        now: u64,
        stats: &mut RunStats,
        sink: &mut S,
    ) {
        let n_warps = self.ctas[cta_slot].warps.len() as u32;
        if S::ENABLED {
            let (sm, slot, cta_id) = (self.id as u32, cta_slot as u32, self.ctas[cta_slot].cta_id);
            // Close whatever span is open above the resident span so the
            // final CtaComplete balances the CtaLaunch.
            if self.ctas[cta_slot].is_active() {
                sink.emit(
                    now,
                    TraceEvent::CtaDeactivate {
                        sm,
                        cta_slot: slot,
                        cta_id,
                    },
                );
            } else if matches!(self.ctas[cta_slot].phase, CtaPhase::SwappingIn { .. }) {
                sink.emit(
                    now,
                    TraceEvent::SwapEnd {
                        sm,
                        cta_slot: slot,
                        cta_id,
                        dir: SwapDir::In,
                    },
                );
            }
            sink.emit(
                now,
                TraceEvent::CtaComplete {
                    sm,
                    cta_slot: slot,
                    cta_id,
                },
            );
        }
        if self.ctas[cta_slot].holds_active_slot() {
            self.slot_ctas -= 1;
            self.slot_warps -= n_warps;
            if self.ctas[cta_slot].is_active() {
                self.active_phase_warps -= n_warps;
            } else {
                self.swapping_ctas -= 1; // SwappingIn
            }
        } else {
            // Only Active CTAs issue, so a CTA cannot finish mid-swap.
            debug_assert!(
                !matches!(self.ctas[cta_slot].phase, CtaPhase::SwappingOut { .. }),
                "CTA finished while swapping out"
            );
        }
        self.resident_reg_bytes -= self.ctas[cta_slot].reg_bytes;
        self.resident_smem_bytes -= self.ctas[cta_slot].smem_bytes;
        self.resident_warps -= n_warps;
        self.resident_ctas -= 1;
        for &w in &self.ctas[cta_slot].warps.clone() {
            // Invalidate the slot's uid so in-flight completions and
            // writebacks for this warp are dropped.
            self.warp_uids[w] = 0;
            self.free_warp_slots.push(w);
        }
        self.ctas[cta_slot].phase = CtaPhase::Finished;
        self.ctas[cta_slot].warps.clear();
        self.free_cta_slots.push(cta_slot);
        self.issue_dirty = true;
        stats.ctas_completed += 1;
        // A slot freed: a parked CTA may activate.
        self.try_activate(now, kernel, core, res, stats, sink);
    }

    // ----- stats -------------------------------------------------------------

    /// The per-cycle occupancy, swap-busy and LD/ST-queue samples every
    /// SM-cycle takes, issuing or not.
    fn sample_occupancy(&self, stats: &mut RunStats) {
        let occ = &mut stats.occupancy;
        occ.sm_cycles += 1;
        occ.resident_warp_cycles += u64::from(self.resident_warps);
        occ.active_warp_cycles += u64::from(self.active_phase_warps);
        occ.resident_cta_cycles += u64::from(self.resident_ctas);
        occ.active_cta_cycles += u64::from(self.slot_ctas);
        occ.reg_byte_cycles += u64::from(self.resident_reg_bytes);
        occ.smem_byte_cycles += u64::from(self.resident_smem_bytes);
        if self.swapping_ctas > 0 {
            stats.swaps.swap_busy_cycles += 1;
        }
        stats.ldst_queue.sample(self.ldst.queue_len() as u64);
    }

    /// Charges this cycle's stats. Returns the stall verdict charged when
    /// warps were resident but none issued (the quiescence candidate).
    fn accumulate_stats<const PROFILED: bool>(
        &self,
        now: u64,
        issued: u32,
        first_issue_pc: Option<usize>,
        kernel: &Kernel,
        stats: &mut RunStats,
        attr: EmptyAttr,
    ) -> Option<(StallReason, Option<usize>)> {
        self.sample_occupancy(stats);
        if issued > 0 {
            stats.issue_cycles += 1;
            // The cycle's one issue tally goes to the first PC that
            // issued, so per-PC `issued` sums exactly to `issue_cycles`.
            if PROFILED {
                if let (Some(h), Some(pc)) = (stats.hotspots.as_mut(), first_issue_pc) {
                    h.record_issue_cycle(pc);
                }
            }
            return None;
        }
        // Idle cycle: classify.
        if self.resident_warps == 0 {
            stats.idle.no_warps += 1;
            // Empty sub-split (keeps `empty.total() == idle.no_warps`):
            // with undispatched CTAs left the SM is starved by whichever
            // limit family governs admission; otherwise it is draining.
            if !attr.work_left {
                stats.empty.drain += 1;
            } else if attr.scheduling_limited {
                stats.empty.scheduling += 1;
            } else {
                stats.empty.capacity += 1;
            }
            return None;
        }
        let (stall, blame) = self.classify_stall::<PROFILED>(now, kernel);
        charge_idle::<PROFILED>(stats, stall, blame);
        Some((stall, blame))
    }

    /// Why a non-empty SM issued nothing at `now`: the idle bucket (named
    /// by its stall reason) and, when `PROFILED`, the PC to blame.
    /// Read-only, so the debug shadow check can re-run it.
    fn classify_stall<const PROFILED: bool>(
        &self,
        now: u64,
        kernel: &Kernel,
    ) -> (StallReason, Option<usize>) {
        if self.active_phase_warps == 0 {
            if self.swapping_ctas > 0 {
                // Context-switch overhead has no instruction to blame.
                return (StallReason::Swap, None);
            }
            // Everything resident is inactive and waiting on memory;
            // blame the oldest inactive warp with loads in flight.
            let pc = if PROFILED {
                self.warps
                    .iter()
                    .filter(|w| !w.done && w.pending_loads > 0)
                    .min_by_key(|w| w.age)
                    .map(|w| w.stack.pc())
            } else {
                None
            };
            return (StallReason::Memory, pc);
        }
        let (mut mem_b, mut pipe_b, mut barrier_b) = (false, false, false);
        let mut all_barrier = true;
        // Oldest blamable instruction per stall class; the issue list is
        // age-sorted, so the first hit of each class is the oldest.
        let (mut first_mem, mut first_pipe, mut first_barrier, mut first_other) =
            (None, None, None, None);
        for &w in &self.issue_list {
            match self.readiness(w, now, kernel) {
                Readiness::BlockedMem => {
                    mem_b = true;
                    all_barrier = false;
                    if PROFILED && first_mem.is_none() {
                        first_mem = Some(self.warps[w].stack.pc());
                    }
                }
                Readiness::BlockedPipe => {
                    pipe_b = true;
                    all_barrier = false;
                    if PROFILED && first_pipe.is_none() {
                        first_pipe = Some(self.warps[w].stack.pc());
                    }
                }
                Readiness::Barrier => {
                    barrier_b = true;
                    // The stack already advanced past the Bar: the charge
                    // lands on the instruction waiting behind the barrier.
                    if PROFILED && first_barrier.is_none() {
                        first_barrier = Some(self.warps[w].stack.pc());
                    }
                }
                Readiness::Done => {}
                // LD/ST queue or SFU structural hazards, and ready warps
                // a scheduler partition could not reach, fall through to
                // the `other` bucket below.
                Readiness::LdstFull | Readiness::SfuBusy | Readiness::Ready => {
                    all_barrier = false;
                    if PROFILED && first_other.is_none() {
                        first_other = Some(self.warps[w].stack.pc());
                    }
                }
            }
        }
        if mem_b {
            (StallReason::Memory, first_mem)
        } else if barrier_b && all_barrier {
            (StallReason::Barrier, first_barrier)
        } else if pipe_b {
            (StallReason::Pipeline, first_pipe)
        } else {
            // Structural hazards (LD/ST queue, SFU interval, scheduler
            // partition imbalance) and anything unclassified.
            (StallReason::Structural, first_other)
        }
    }

    // ----- introspection -------------------------------------------------------

    /// Whether the SM holds no CTAs and has no local work in flight.
    pub fn idle(&self) -> bool {
        self.resident_ctas == 0 && self.ldst.idle() && self.writebacks.is_empty()
    }

    /// Resident CTAs right now.
    pub fn resident_ctas(&self) -> u32 {
        self.resident_ctas
    }

    /// Resident warps right now.
    pub fn resident_warps(&self) -> u32 {
        self.resident_warps
    }

    /// Schedulable (active-phase) warps right now.
    pub fn active_warps(&self) -> u32 {
        self.active_phase_warps
    }

    /// CTAs holding active slots right now.
    pub fn slot_ctas(&self) -> u32 {
        self.slot_ctas
    }

    /// Deepest SIMT stack seen on this SM so far.
    pub fn max_simt_depth(&self) -> usize {
        self.max_simt_depth
    }

    /// Register-file bytes held by resident CTAs right now.
    pub fn resident_reg_bytes(&self) -> u32 {
        self.resident_reg_bytes
    }

    /// Shared-memory bytes held by resident CTAs right now.
    pub fn resident_smem_bytes(&self) -> u32 {
        self.resident_smem_bytes
    }

    // ----- checkpointing -------------------------------------------------------

    /// Serializes the complete SM state — CTA and warp tables (including
    /// freed slots awaiting reuse), scheduler pointers, LD/ST unit,
    /// writeback pipe and throttle state — for checkpointing. Must be
    /// called at a cycle boundary (after [`Sm::apply_deferred`]); the
    /// transient issue list is rebuilt on restore.
    ///
    /// # Panics
    ///
    /// Panics if deferred memory effects are still queued, which would
    /// mean the caller is mid-cycle.
    pub fn snapshot(&self) -> vt_json::Json {
        use vt_json::Json;
        assert!(
            self.deferred.is_empty(),
            "SM snapshot taken mid-cycle (deferred effects queued)"
        );
        let opt_u64 = |o: Option<u64>| match o {
            Some(x) => Json::UInt(x),
            None => Json::Null,
        };
        let mut writebacks: Vec<(u64, usize, u16, u64)> =
            self.writebacks.iter().map(|r| r.0).collect();
        writebacks.sort_unstable();
        Json::Object(vec![
            ("id".into(), Json::UInt(self.id as u64)),
            ("line_bytes".into(), Json::UInt(u64::from(self.line_bytes))),
            (
                "ctas".into(),
                Json::Array(self.ctas.iter().map(CtaRt::snapshot).collect()),
            ),
            (
                "free_cta_slots".into(),
                Json::Array(
                    self.free_cta_slots
                        .iter()
                        .map(|&s| Json::UInt(s as u64))
                        .collect(),
                ),
            ),
            (
                "warps".into(),
                Json::Array(self.warps.iter().map(WarpRt::snapshot).collect()),
            ),
            (
                "free_warp_slots".into(),
                Json::Array(
                    self.free_warp_slots
                        .iter()
                        .map(|&s| Json::UInt(s as u64))
                        .collect(),
                ),
            ),
            (
                "warp_uids".into(),
                Json::Array(self.warp_uids.iter().map(|&u| Json::UInt(u)).collect()),
            ),
            (
                "resident_reg_bytes".into(),
                Json::UInt(u64::from(self.resident_reg_bytes)),
            ),
            (
                "resident_smem_bytes".into(),
                Json::UInt(u64::from(self.resident_smem_bytes)),
            ),
            (
                "resident_warps".into(),
                Json::UInt(u64::from(self.resident_warps)),
            ),
            (
                "resident_ctas".into(),
                Json::UInt(u64::from(self.resident_ctas)),
            ),
            ("slot_ctas".into(), Json::UInt(u64::from(self.slot_ctas))),
            ("slot_warps".into(), Json::UInt(u64::from(self.slot_warps))),
            (
                "active_phase_warps".into(),
                Json::UInt(u64::from(self.active_phase_warps)),
            ),
            (
                "swapping_ctas".into(),
                Json::UInt(u64::from(self.swapping_ctas)),
            ),
            (
                "sched_last".into(),
                Json::Array(
                    self.sched_last
                        .iter()
                        .map(|&o| opt_u64(o.map(|s| s as u64)))
                        .collect(),
                ),
            ),
            (
                "sched_ptr".into(),
                Json::Array(
                    self.sched_ptr
                        .iter()
                        .map(|&p| Json::UInt(p as u64))
                        .collect(),
                ),
            ),
            ("sfu_free_at".into(), Json::UInt(self.sfu_free_at)),
            ("ldst".into(), self.ldst.snapshot()),
            (
                "writebacks".into(),
                Json::Array(
                    writebacks
                        .into_iter()
                        .map(|(ready, wslot, reg, uid)| {
                            Json::Array(vec![
                                Json::UInt(ready),
                                Json::UInt(wslot as u64),
                                Json::UInt(u64::from(reg)),
                                Json::UInt(uid),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("next_uid".into(), Json::UInt(self.next_uid)),
            ("cta_seq".into(), Json::UInt(self.cta_seq)),
            (
                "max_simt_depth".into(),
                Json::UInt(self.max_simt_depth as u64),
            ),
            ("throttle_hold".into(), Json::Bool(self.throttle_hold)),
            (
                "throttle_window_end".into(),
                Json::UInt(self.throttle_window_end),
            ),
            (
                "phase_window".into(),
                Json::UInt(u64::from(self.phase_window)),
            ),
            ("phase_accum".into(), Json::UInt(self.phase_accum)),
            (
                "phases_since_probe".into(),
                Json::UInt(u64::from(self.phases_since_probe)),
            ),
            ("window_issues".into(), Json::UInt(self.window_issues)),
            (
                "mode_ipc_est".into(),
                Json::Array(vec![
                    opt_u64(self.mode_ipc_est[0]),
                    opt_u64(self.mode_ipc_est[1]),
                ]),
            ),
        ])
    }

    /// Rebuilds an SM from [`Sm::snapshot`] output. The issue list is
    /// marked dirty so the first scheduling pass regenerates it.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn restore(v: &vt_json::Json) -> Result<Sm, String> {
        use vt_json::{elem_u64, req, req_array, req_bool, req_u64, Json};
        let opt_u64 = |j: &Json, what: &str| -> Result<Option<u64>, String> {
            match j {
                Json::Null => Ok(None),
                other => Ok(Some(
                    other
                        .as_u64()
                        .ok_or_else(|| format!("{what} is not a u64"))?,
                )),
            }
        };
        let usize_vec = |v: &Json, key: &str| -> Result<Vec<usize>, String> {
            req_array(v, key)?
                .iter()
                .map(|s| {
                    s.as_u64()
                        .map(|x| x as usize)
                        .ok_or_else(|| format!("{key} element is not a u64"))
                })
                .collect()
        };
        let ctas = req_array(v, "ctas")?
            .iter()
            .map(CtaRt::restore)
            .collect::<Result<Vec<_>, _>>()?;
        let warps = req_array(v, "warps")?
            .iter()
            .map(WarpRt::restore)
            .collect::<Result<Vec<_>, _>>()?;
        let warp_uids = req_array(v, "warp_uids")?
            .iter()
            .map(|u| u.as_u64().ok_or("warp uid is not a u64"))
            .collect::<Result<Vec<u64>, &str>>()?;
        if warp_uids.len() != warps.len() {
            return Err("warp uid table length mismatch".to_string());
        }
        let mut sched_last = Vec::new();
        for item in req_array(v, "sched_last")? {
            sched_last.push(opt_u64(item, "sched_last slot")?.map(|s| s as usize));
        }
        if sched_last.is_empty() {
            return Err("SM has no schedulers".to_string());
        }
        let mut writebacks = BinaryHeap::new();
        for item in req_array(v, "writebacks")? {
            let a = item.as_array().ok_or("writeback is not an array")?;
            writebacks.push(Reverse((
                elem_u64(a, 0)?,
                elem_u64(a, 1)? as usize,
                elem_u64(a, 2)? as u16,
                elem_u64(a, 3)?,
            )));
        }
        let est = req_array(v, "mode_ipc_est")?;
        if est.len() != 2 {
            return Err("mode_ipc_est must have 2 entries".to_string());
        }
        Ok(Sm {
            id: req_u64(v, "id")? as usize,
            line_bytes: req_u64(v, "line_bytes")? as u32,
            ctas,
            free_cta_slots: usize_vec(v, "free_cta_slots")?,
            warps,
            free_warp_slots: usize_vec(v, "free_warp_slots")?,
            warp_uids,
            resident_reg_bytes: req_u64(v, "resident_reg_bytes")? as u32,
            resident_smem_bytes: req_u64(v, "resident_smem_bytes")? as u32,
            resident_warps: req_u64(v, "resident_warps")? as u32,
            resident_ctas: req_u64(v, "resident_ctas")? as u32,
            slot_ctas: req_u64(v, "slot_ctas")? as u32,
            slot_warps: req_u64(v, "slot_warps")? as u32,
            active_phase_warps: req_u64(v, "active_phase_warps")? as u32,
            swapping_ctas: req_u64(v, "swapping_ctas")? as u32,
            sched_ptr: {
                let p = usize_vec(v, "sched_ptr")?;
                if p.len() != sched_last.len() {
                    return Err("scheduler pointer table length mismatch".to_string());
                }
                p
            },
            sched_last,
            sfu_free_at: req_u64(v, "sfu_free_at")?,
            ldst: LdstUnit::restore(req(v, "ldst")?)?,
            writebacks,
            issue_list: Vec::new(),
            in_issue_list: Vec::new(),
            issue_dirty: true,
            quiet: None,
            #[cfg(test)]
            quiet_hits: 0,
            next_uid: req_u64(v, "next_uid")?,
            cta_seq: req_u64(v, "cta_seq")?,
            max_simt_depth: req_u64(v, "max_simt_depth")? as usize,
            throttle_hold: req_bool(v, "throttle_hold")?,
            throttle_window_end: req_u64(v, "throttle_window_end")?,
            phase_window: req_u64(v, "phase_window")? as u32,
            phase_accum: req_u64(v, "phase_accum")?,
            phases_since_probe: req_u64(v, "phases_since_probe")? as u32,
            window_issues: req_u64(v, "window_issues")?,
            mode_ipc_est: [
                opt_u64(&est[0], "mode_ipc_est[0]")?,
                opt_u64(&est[1], "mode_ipc_est[1]")?,
            ],
            deferred: Vec::new(),
        })
    }
}

/// Memory micro-op discriminant used by `exec_mem`.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Load {
        dst: Reg,
    },
    Store {
        src: Operand,
    },
    Atomic {
        op: vt_isa::AtomOp,
        dst: Option<Reg>,
        val: Operand,
    },
}

/// Charges one idle SM-cycle to the [`crate::stats::IdleBreakdown`]
/// bucket of `stall` and, when `PROFILED`, to `blame` in the hotspot
/// profile (unattributed when no instruction is blamable).
fn charge_idle<const PROFILED: bool>(
    stats: &mut RunStats,
    stall: StallReason,
    blame: Option<usize>,
) {
    let idle = &mut stats.idle;
    *match stall {
        StallReason::Memory => &mut idle.memory,
        StallReason::Pipeline => &mut idle.pipeline,
        StallReason::Barrier => &mut idle.barrier,
        StallReason::Swap => &mut idle.swapping,
        StallReason::Structural => &mut idle.other,
    } += 1;
    if PROFILED {
        if let Some(h) = stats.hotspots.as_mut() {
            h.record_stall(blame, stall);
        }
    }
}

fn thread_ctx(w: &WarpRt, lane: u32, kernel: &Kernel, ctas: &[CtaRt]) -> ThreadCtx {
    ThreadCtx {
        tid: w.first_tid + lane,
        ctaid: ctas[w.cta_slot].cta_id,
        ntid: kernel.threads_per_cta(),
        ncta: kernel.num_ctas(),
    }
}

#[cfg(test)]
mod tests {
    //! Wake tests for the quiescent fast path: each drives one wake
    //! source on a single SM and checks, cycle by cycle, that the fast
    //! path was in effect up to the wake and was left exactly at it.
    //! Debug builds also run the shadow check on every fast cycle.

    use super::*;
    use crate::config::{SwapConfig, ThrottleConfig};
    use vt_isa::op::{SfuOp, Sreg};
    use vt_isa::KernelBuilder;
    use vt_mem::MemConfig;

    /// One driven SM-cycle.
    struct Cycle {
        /// The quiescent fast path charged this cycle.
        fast: bool,
        /// A warp issued this cycle.
        issued: bool,
        /// Warps were resident after the tick.
        resident: bool,
        /// The test's probe of the SM after the tick.
        probe: u64,
    }

    /// Runs `kernel` on one SM until it drains, admitting CTA `i` at the
    /// end of the first cycle at or after `admit_at[i]` that it fits, as
    /// the engine's dispatcher does.
    fn drive(
        kernel: &Kernel,
        core: &CoreConfig,
        res: &ResidencyConfig,
        admit_at: &[u64],
        probe: impl Fn(&Sm) -> u64,
    ) -> Vec<Cycle> {
        assert_eq!(kernel.num_ctas() as usize, admit_at.len());
        let mcfg = MemConfig::default();
        let mut mem = MemSystem::new(&mcfg, 1);
        let mut sm = Sm::new(0, core, mcfg.line_bytes);
        let mut image = kernel.global_mem().clone();
        let mut stats = RunStats::default();
        let mut next = 0;
        let mut log = Vec::new();
        for now in 0..100_000 {
            mem.tick(now);
            let (hits, issues) = (sm.quiet_hits, stats.issue_cycles);
            sm.tick(
                now,
                kernel,
                core,
                res,
                &mut mem,
                &mut image,
                &mut stats,
                EmptyAttr::drained(),
            )
            .expect("kernel runs");
            log.push(Cycle {
                fast: sm.quiet_hits > hits,
                issued: stats.issue_cycles > issues,
                resident: sm.resident_warps > 0,
                probe: probe(&sm),
            });
            while next < admit_at.len() && admit_at[next] <= now && sm.can_admit(kernel, core, res)
            {
                sm.admit(next as u32, kernel, core, res, now, &mut stats);
                next += 1;
            }
            if next == admit_at.len() && sm.idle() && mem.quiesced() {
                assert_eq!(stats.ctas_completed, admit_at.len() as u64);
                assert!(sm.quiet_hits > 0, "the fast path was never taken");
                return log;
            }
        }
        panic!("kernel did not drain");
    }

    /// Checks every cycle `t` that `is_wake(log, t)` names: the fast path
    /// must not charge it, and must have charged `t - 1` whenever warps
    /// were resident and none issued on `t - 2` and `t - 1` (so a memo
    /// was in place).
    /// Returns how many wakes met that condition.
    fn assert_wakes(log: &[Cycle], is_wake: impl Fn(&[Cycle], usize) -> bool) -> usize {
        let mut checked = 0;
        for t in 2..log.len() {
            if !is_wake(log, t) {
                continue;
            }
            assert!(!log[t].fast, "cycle {t}: fast path taken through a wake");
            let (a, b) = (&log[t - 2], &log[t - 1]);
            if a.resident && b.resident && !a.issued && !b.issued {
                assert!(
                    log[t - 1].fast,
                    "cycle {}: stalled SM not on the fast path",
                    t - 1
                );
                checked += 1;
            }
        }
        checked
    }

    /// The probe of the previous cycle named this cycle (a deadline).
    fn deadline_hit(log: &[Cycle], t: usize) -> bool {
        log[t - 1].probe == t as u64
    }

    fn rose(log: &[Cycle], t: usize) -> bool {
        log[t].probe > log[t - 1].probe
    }

    fn fell(log: &[Cycle], t: usize) -> bool {
        log[t].probe < log[t - 1].probe
    }

    fn one_sm() -> CoreConfig {
        CoreConfig {
            num_sms: 1,
            ..CoreConfig::default()
        }
    }

    /// One active CTA slot, unlimited residency, all-warps-stalled swaps.
    fn vt(throttle: Option<ThrottleConfig>) -> (CoreConfig, ResidencyConfig) {
        let core = CoreConfig {
            max_ctas_per_sm: 1,
            ..one_sm()
        };
        let res = ResidencyConfig {
            admission: AdmissionPolicy::CapacityOnly {
                max_resident_ctas: None,
            },
            active: ActivePolicy::SchedulingLimit,
            swap: Some(SwapConfig {
                trigger: SwapTrigger::AllWarpsStalled,
                save_cycles: 200,
                restore_cycles: 30,
                fresh_activation_cycles: 15,
                throttle,
            }),
        };
        (core, res)
    }

    /// `out[gid] = xs[gid] + 1`: one long global load per thread.
    fn load_add_store(ctas: u32) -> Kernel {
        let n = (ctas * 32) as usize;
        let mut b = KernelBuilder::new("load_add_store");
        let xs = b.alloc_global_init(&(0..n as u32).collect::<Vec<_>>());
        let out = b.alloc_global(n);
        let (gid, off, v) = (b.reg(), b.reg(), b.reg());
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(off), xs as i32);
        b.add(v, Operand::Reg(v), Operand::Imm(1));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
        b.exit();
        b.build(ctas, 32).unwrap()
    }

    fn pending(sm: &Sm, reg: Reg) -> u64 {
        u64::from(
            sm.warps
                .first()
                .is_some_and(|w| w.scoreboard.is_pending(reg)),
        )
    }

    #[test]
    fn alu_writeback_wakes() {
        let mut b = KernelBuilder::new("alu_chain");
        let r = [b.reg(), b.reg(), b.reg(), b.reg()];
        b.mov(r[0], Operand::Sreg(Sreg::Tid));
        for i in 1..4 {
            b.add(r[i], Operand::Reg(r[i - 1]), Operand::Imm(1));
        }
        b.exit();
        let k = b.build(1, 32).unwrap();
        let log = drive(&k, &one_sm(), &ResidencyConfig::baseline(), &[0], |sm| {
            sm.writebacks.peek().map_or(u64::MAX, |r| r.0 .0)
        });
        assert_eq!(assert_wakes(&log, deadline_hit), 3);
    }

    #[test]
    fn ldst_completion_wakes() {
        let mut b = KernelBuilder::new("smem_roundtrip");
        let buf = b.alloc_shared(32);
        let (tid, off, v) = (b.reg(), b.reg(), b.reg());
        b.mov(tid, Operand::Sreg(Sreg::Tid));
        b.shl(off, Operand::Reg(tid), Operand::Imm(2));
        b.ld_shared(v, Operand::Reg(off), buf as i32);
        b.st_shared(Operand::Reg(off), buf as i32, Operand::Reg(v));
        b.exit();
        let k = b.build(1, 32).unwrap();
        let log = drive(&k, &one_sm(), &ResidencyConfig::baseline(), &[0], |sm| {
            pending(sm, v)
        });
        assert_eq!(assert_wakes(&log, fell), 1);
        let log = drive(
            &load_add_store(1),
            &one_sm(),
            &ResidencyConfig::baseline(),
            &[0],
            |sm| pending(sm, Reg(2)),
        );
        assert_eq!(assert_wakes(&log, fell), 1);
    }

    #[test]
    fn miss_notification_wakes() {
        // Load 1 misses on lines 0..31; load 2 re-touches lines 0..15
        // (hits, one L1 port per cycle) before its first miss, so that
        // miss is observed while the SM is quiescent and the access is
        // still being submitted.
        let mut b = KernelBuilder::new("hit_then_miss");
        let base = b.alloc_global(64 * 32);
        let (tid, line, half, addr, v, w) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.mov(tid, Operand::Sreg(Sreg::Tid));
        b.shl(line, Operand::Reg(tid), Operand::Imm(7));
        b.ld_global(v, Operand::Reg(line), base as i32);
        b.shr(half, Operand::Reg(tid), Operand::Imm(4));
        b.shl(half, Operand::Reg(half), Operand::Imm(12));
        b.add(addr, Operand::Reg(line), Operand::Reg(half));
        b.add(addr, Operand::Reg(addr), Operand::Reg(v));
        b.ld_global(w, Operand::Reg(addr), base as i32);
        b.st_global(Operand::Reg(line), base as i32, Operand::Reg(w));
        b.exit();
        let k = b.build(1, 32).unwrap();
        let log = drive(&k, &one_sm(), &ResidencyConfig::baseline(), &[0], |sm| {
            sm.warps
                .first()
                .map_or(0, |w| u64::from(w.long_pending_loads))
        });
        assert_eq!(assert_wakes(&log, rose), 1);
    }

    #[test]
    fn ldst_queue_leaving_full_wakes() {
        // A one-entry queue and two warps storing 32 scattered lines each:
        // every queue pop wakes the SM to issue the next store.
        let core = CoreConfig {
            ldst_queue_depth: 1,
            ..one_sm()
        };
        let mut b = KernelBuilder::new("scatter_stores");
        let base = b.alloc_global(64 * 32 * 2);
        let (tid, addr) = (b.reg(), b.reg());
        b.mov(tid, Operand::Sreg(Sreg::Tid));
        b.shl(addr, Operand::Reg(tid), Operand::Imm(7));
        b.st_global(Operand::Reg(addr), base as i32, Operand::Reg(tid));
        b.st_global(Operand::Reg(addr), base as i32 + 4, Operand::Reg(tid));
        b.exit();
        let k = b.build(1, 64).unwrap();
        let log = drive(&k, &core, &ResidencyConfig::baseline(), &[0], |sm| {
            sm.ldst.queue_len() as u64
        });
        // A pop and the issue it enables share a cycle, so the queue reads
        // full after both; the wake shows as an issue out of a full queue.
        // Nothing else is in flight once the stores start.
        let popped = |log: &[Cycle], t: usize| log[t].issued && log[t - 1].probe == 1;
        assert_eq!(assert_wakes(&log, popped), 3);
    }

    #[test]
    fn sfu_interval_expiry_wakes() {
        let core = CoreConfig {
            sfu_init_interval: 16,
            sfu_latency: 40,
            ..one_sm()
        };
        let mut b = KernelBuilder::new("sfu_pair");
        let (x, y, z) = (b.reg(), b.reg(), b.reg());
        b.mov(x, Operand::Sreg(Sreg::Tid));
        b.sfu(SfuOp::Rcp, y, Operand::Reg(x));
        b.sfu(SfuOp::Rcp, z, Operand::Reg(x));
        b.exit();
        let k = b.build(1, 32).unwrap();
        let log = drive(&k, &core, &ResidencyConfig::baseline(), &[0], |sm| {
            sm.sfu_free_at
        });
        assert_eq!(assert_wakes(&log, deadline_hit), 1);
    }

    /// The earliest `done_at` among CTAs in the phase `pick` selects.
    fn swap_deadline(sm: &Sm, pick: impl Fn(CtaPhase) -> Option<u64>) -> u64 {
        sm.ctas
            .iter()
            .filter_map(|c| pick(c.phase))
            .min()
            .unwrap_or(u64::MAX)
    }

    #[test]
    fn swap_in_done_wakes() {
        let (core, res) = vt(None);
        let log = drive(&load_add_store(2), &core, &res, &[0, 0], |sm| {
            swap_deadline(sm, |p| match p {
                CtaPhase::SwappingIn { done_at } => Some(done_at),
                _ => None,
            })
        });
        assert!(assert_wakes(&log, deadline_hit) >= 2);
    }

    #[test]
    fn swap_out_done_wakes() {
        let (core, res) = vt(None);
        let log = drive(&load_add_store(2), &core, &res, &[0, 0], |sm| {
            swap_deadline(sm, |p| match p {
                CtaPhase::SwappingOut { done_at } => Some(done_at),
                _ => None,
            })
        });
        assert!(assert_wakes(&log, deadline_hit) >= 1);
    }

    #[test]
    fn throttle_window_boundary_wakes() {
        let (core, res) = vt(Some(ThrottleConfig {
            window_cycles: 64,
            phase_windows: 2,
            probe_every_phases: 2,
        }));
        let log = drive(&load_add_store(2), &core, &res, &[0, 0], |sm| {
            sm.throttle_window_end
        });
        assert!(assert_wakes(&log, deadline_hit) >= 3);
    }

    #[test]
    fn barrier_release_ends_the_fast_path() {
        // Warp 0 waits at the barrier while warp 1 waits on memory. The
        // release is an issue (warp 1's `bar`), so it never lands on a
        // fast cycle; what matters is that the wait ran fast and the
        // memo did not outlive the release.
        let mut b = KernelBuilder::new("bar_behind_load");
        let base = b.alloc_global(64);
        let (wid, off, v) = (b.reg(), b.reg(), b.reg());
        b.mov(wid, Operand::Sreg(Sreg::WarpId));
        b.if_(Operand::Reg(wid), |b| {
            b.mov(off, Operand::Sreg(Sreg::Tid));
            b.shl(off, Operand::Reg(off), Operand::Imm(2));
            b.ld_global(v, Operand::Reg(off), base as i32);
            b.add(v, Operand::Reg(v), Operand::Imm(1));
        });
        b.bar();
        b.exit();
        let k = b.build(1, 64).unwrap();
        let log = drive(&k, &one_sm(), &ResidencyConfig::baseline(), &[0], |sm| {
            sm.warps.iter().filter(|w| w.waiting_barrier).count() as u64
        });
        assert!(
            log.iter().any(|c| c.fast && c.probe > 0),
            "barrier wait not fast"
        );
        let release = (1..log.len()).find(|&t| fell(&log, t)).unwrap();
        assert!(!log[release].fast && !log[release + 1].fast);
    }

    #[test]
    fn cta_admit_and_finish_end_the_fast_path() {
        let core = one_sm();
        let res = ResidencyConfig::baseline();
        let log = drive(&load_add_store(2), &core, &res, &[0, 100], |sm| {
            u64::from(sm.resident_ctas)
        });
        // The admit lands while CTA 0 waits on memory.
        assert_eq!(assert_wakes(&log, rose), 1);
        let finishes: Vec<usize> = (1..log.len()).filter(|&t| fell(&log, t)).collect();
        assert_eq!(finishes.len(), 2);
        // After the first finish CTA 1 is still resident: the issue list
        // must be rebuilt before the SM may go quiet again.
        assert!(!log[finishes[0]].fast && !log[finishes[0] + 1].fast);
    }
}
