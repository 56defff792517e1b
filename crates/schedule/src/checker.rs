//! Exact per-buffer access checking.
//!
//! The ILP constraints keep *absolute* image rows within their ports
//! except where a window lies wholly below the bottom edge (the paper's
//! formulation, Sec. 5.3; see [`crate::constraints`] for that exception).
//! A rotating buffer additionally maps absolute rows `r` and
//! `r + phys_rows` onto the same physical block, so the writer can
//! physically alias the oldest resident reader row — benign on dual-port
//! blocks (write + read = 2), fatal on single-port ones, which therefore
//! need slack rows. This module decides both levels exactly and computes
//! the minimal physical slack, in two ways that always agree.
//!
//! # The row scanner
//!
//! Access patterns are piecewise-constant between *transition cycles*
//! (stage activations, row advances, and column-segment crossings), so
//! checking every transition point is exact. [`check_accesses`] does not
//! visit every row advance either: once every stream is active and no
//! window clamps at the bottom edge, the pattern repeats every steady
//! period (the physical rotation times the lcm of the stream cadences).
//! It scans a head of row advances covering every activation plus one
//! period, and a tail covering deactivations and the bottom-edge clamp —
//! each as long as the streams' start span in rows plus the tallest
//! window plus the period. Each scanned advance costs one transition per
//! stream (and per column segment when rows split over blocks), each
//! counted over the streams' rows. A frame shorter than twice that margin
//! is scanned whole. [`required_phys_rows`] scans once per distinct
//! candidate row count: the logical rows plus up to `2g + 2` slack rows,
//! rounded up to whole blocks.
//!
//! # The arithmetic
//!
//! [`BufferCheck::verdict`] decides a rate-1 buffer whose rows do not
//! split across blocks from its streams' start differences instead — the
//! set-counting → arithmetic step of Sec. 5.3 applied one level down, to
//! the rotating physical rows. Write each start as `S = q·W + r` and a
//! cycle as `t = Y·W + φ`. While `φ` stays between two consecutive start
//! residues every stream sits a fixed number of rows behind raster row
//! `Y`, so one *phase* per distinct residue fixes the rows, relative to
//! `Y`, that each stream accesses. Readers on one residue read the same
//! column and merge on a shared row; the writer never merges. While every
//! stream is active and no window clamps, a row's access count is its
//! multiplicity in the phase's row list, and a block's — `P` physical
//! rows in blocks of `g` — depends on `Y` only through `Y mod g`. A check
//! counts a phase's few rows once per `Y mod g` and candidate `P`; it
//! does not scan.
//!
//! The other cycles the scanner visits are covered too. Before a stream
//! starts, after it ends, and while a window clamps only some of its rows,
//! the accesses are a subset of the steady ones at the same `Y` and phase,
//! so they cannot exceed them. The exception is a window lying wholly
//! below the frame — a stream within its last `row_offset` rows — which
//! folds onto row `H − 1`. Those cycles are counted as the scanner counts
//! them, at the scanner's own transition cycles. So:
//!
//! * an accept is always certain;
//! * a reject is certain when a folded cycle exceeds the ports, or when a
//!   steady over-subscription recurs at a row `Y` (of its residue mod `g`)
//!   where every stream is active and no window clamps;
//! * everything else runs the scanner: an uncertain reject, the first
//!   violation of a final error, multirate cadences, split rows and
//!   windows taller than the frame.
//!
//! Every verdict, physical row count, error text and violation cycle is
//! therefore the scanner's. The planner checks each buffer through a
//! [`PortCheckMemo`](crate::PortCheckMemo), which a compile session keeps
//! for its lifetime and which counts the buffers that needed the scanner.
//! The scanner stays as `imagen lint`'s replay, as the fallback, and as
//! the reference the property tests hold the arithmetic to.

use imagen_mem::BlockLayout;
use std::fmt;

/// A resolved access stream: start cycle plus row pattern.
///
/// Multirate streams carry their cadence explicitly. All fields being 1
/// reproduces the seed's fixed-rate behavior exactly. The *base clock*
/// spans `W·H` cycles for every stage; `row_div` converts a base raster
/// row into a buffer (producer-grid) row, and `row_active`/`col_div`
/// gate which base cycles actually touch the memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResolvedEntity {
    /// Start cycle of the governing stage.
    pub start: i64,
    /// First row offset accessed below the raster row.
    pub row_offset: u32,
    /// Rows accessed per cycle.
    pub height: u32,
    /// Whether this stream writes (the producer).
    pub is_writer: bool,
    /// Base rows per buffer row (the buffer producer's cumulative `pcy`);
    /// the accessed base row maps to buffer row `⌊y / row_div⌋`.
    pub row_div: u32,
    /// Base columns per buffer column (`pcx`); the stream only touches
    /// memory on base columns with `x % col_div == 0`.
    pub col_div: u32,
    /// The stream only touches memory on base rows with
    /// `y % row_active == 0` (the writer's own `pcy`, a reader's `ccy`).
    pub row_active: u32,
}

impl ResolvedEntity {
    /// A fixed-rate (seed-identical) stream.
    pub fn unit_rate(start: i64, row_offset: u32, height: u32, is_writer: bool) -> ResolvedEntity {
        ResolvedEntity {
            start,
            row_offset,
            height,
            is_writer,
            row_div: 1,
            col_div: 1,
            row_active: 1,
        }
    }

    fn is_unit_rate(&self) -> bool {
        self.row_div == 1 && self.col_div == 1 && self.row_active == 1
    }

    /// Whether the window fits in a frame of `height` rows, so that some
    /// raster row reads it unclamped.
    fn fits(&self, height: u32) -> bool {
        u64::from(self.row_offset) + u64::from(self.height) <= u64::from(height)
    }
}

/// A detected over-subscription of a memory block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortViolation {
    /// Cycle at which it occurs.
    pub cycle: i64,
    /// Row (absolute check) or block index (physical check).
    pub location: u64,
    /// Simultaneous accesses observed.
    pub count: u32,
    /// Ports available.
    pub ports: u32,
    /// Whether the violation is physical (aliasing) rather than absolute.
    pub physical: bool,
}

impl fmt::Display for PortViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} receives {} accesses (> {} ports) at cycle {}",
            if self.physical { "block" } else { "row" },
            self.location,
            self.count,
            self.ports,
            self.cycle
        )
    }
}

/// Checks one buffer's access streams at every transition cycle.
///
/// With `layout = None` the check is at absolute-row granularity (the
/// paper's constraint level); with a layout it is at physical-block
/// granularity including rotation aliasing and column segmentation, on
/// the layout's physical rows.
///
/// # Errors
///
/// The first [`PortViolation`] found, scanning cycles in order.
pub fn check_accesses(
    width: u32,
    height: u32,
    pixel_bits: u32,
    entities: &[ResolvedEntity],
    ports: u32,
    layout: Option<&BlockLayout>,
) -> Result<(), PortViolation> {
    // Candidate row advances per entity. The naive set is `k in 0..h`,
    // but between the boundary regions the pattern is periodic: once
    // every entity is active and no window clamps at the bottom edge,
    // advancing every entity's raster row by one leaves the absolute
    // collision pattern unchanged (keys are rows; coincidences depend
    // only on row differences) and rotates physical keys, whose pattern
    // repeats exactly every `phys_rows` advances. So it suffices to scan
    // a head range covering all activations plus one full period, and a
    // tail range covering deactivations and bottom-edge clamping.
    let h = height as i64;
    let w = width as i64;
    // The steady-state period in base rows: the physical rotation repeats
    // every `phys_rows` *buffer* rows, and the cadence pattern repeats
    // every lcm of the entities' row strides — for multirate buffers the
    // period becomes the lcm of the stage rates. (Saturation on hostile
    // rates simply pushes the scan into exhaustive mode below.)
    let cadence = entities.iter().fold(1i64, |acc, e| {
        let stride = lcm(e.row_active as i64, e.row_div as i64);
        lcm(acc, stride)
    });
    let steady_period = layout
        .map(|l| i64::from(l.phys_rows()))
        .unwrap_or(1)
        .saturating_mul(cadence);
    let min_start = entities.iter().map(|e| e.start).min().unwrap_or(0);
    let max_start = entities.iter().map(|e| e.start).max().unwrap_or(0);
    let span_rows = (max_start - min_start) / w + 1;
    let hmax = entities
        .iter()
        .map(|e| (e.row_offset + e.height) as i64)
        .max()
        .unwrap_or(1);
    let margin = span_rows + hmax + steady_period + 2;
    let ks: Vec<i64> = if 2 * margin >= h {
        (0..h).collect()
    } else {
        (0..margin).chain(h - margin..h).collect()
    };
    check_accesses_at(width, height, pixel_bits, entities, ports, layout, &ks)
}

/// [`check_accesses`] over an explicit set of row advances `ks` (the
/// pruned or, in tests, exhaustive transition set).
fn check_accesses_at(
    width: u32,
    height: u32,
    pixel_bits: u32,
    entities: &[ResolvedEntity],
    ports: u32,
    layout: Option<&BlockLayout>,
    ks: &[i64],
) -> Result<(), PortViolation> {
    let w = width as i64;

    // Candidate transition cycles: entity activation plus the selected
    // row advances; plus column-segment crossings when rows split over
    // blocks.
    let mut cycles: Vec<i64> = Vec::new();
    for e in entities {
        for &k in ks {
            cycles.push(e.start + k * w);
        }
        if let Some(l) = layout {
            // Segment crossings happen at buffer columns; a buffer
            // column spans `col_div` base columns.
            for c in l.segment_starts(pixel_bits) {
                let x = c as i64 * i64::from(e.col_div);
                if x < w {
                    cycles.extend(ks.iter().map(|&k| e.start + k * w + x));
                }
            }
        }
    }
    cycles.sort_unstable();
    cycles.dedup();

    let streams = Streams {
        width,
        height,
        pixel_bits,
        entities,
        ports,
    };
    let mut count = CycleCount::default();
    match cycles
        .iter()
        .find_map(|&t| count.violation(&streams, layout, t))
    {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

/// One buffer's access streams on their frame: everything a check reads
/// besides the layout.
struct Streams<'a> {
    width: u32,
    height: u32,
    pixel_bits: u32,
    entities: &'a [ResolvedEntity],
    ports: u32,
}

/// The scanner's per-cycle count, with its scratch space reused across
/// cycles.
#[derive(Default)]
struct CycleCount {
    /// Accesses this cycle: (block key, row, column, is_write).
    accesses: Vec<(u64, i64, i64, bool)>,
    /// Accesses per block key, in the order of each key's first access.
    counts: Vec<(u64, u32)>,
}

impl CycleCount {
    /// The first block (or row) over its ports at cycle `t`, in the order
    /// of each key's first access.
    fn violation(
        &mut self,
        s: &Streams<'_>,
        layout: Option<&BlockLayout>,
        t: i64,
    ) -> Option<PortViolation> {
        let w = s.width as i64;
        let frame = w * s.height as i64;
        self.accesses.clear();
        self.counts.clear();
        // Reads by different streams to the *same address* are merged —
        // the hardware fans out one port's data — while a write never
        // merges with a read.
        for e in s.entities {
            if t < e.start || t >= e.start + frame {
                continue;
            }
            let k = t - e.start;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            // Cadence gating: multirate streams only touch memory on
            // their active sub-grid.
            if y % e.row_active as i64 != 0 || x % e.col_div as i64 != 0 {
                continue;
            }
            // Buffer-grid coordinates: base row/column divided down to
            // the producer's grid (identity for rate-1 streams).
            let ph = s.height as i64 / e.row_div as i64;
            let r0 = y / e.row_div as i64;
            let xp = x / e.col_div as i64;
            // Clamped unique rows accessed this cycle.
            let lo = (r0 + e.row_offset as i64).min(ph - 1);
            let hi = (r0 + e.row_offset as i64 + e.height as i64 - 1).min(ph - 1);
            for row in lo..=hi {
                let key = match layout {
                    None => row as u64,
                    Some(l) => l.block_of(row as u64, xp as u32, s.pixel_bits) as u64,
                };
                let dup = !e.is_writer
                    && self
                        .accesses
                        .iter()
                        .any(|&(k2, r2, x2, w2)| !w2 && k2 == key && r2 == row && x2 == xp);
                if !dup {
                    self.accesses.push((key, row, xp, e.is_writer));
                }
            }
        }
        for &(key, ..) in &self.accesses {
            match self.counts.iter_mut().find(|(k2, _)| *k2 == key) {
                Some((_, c)) => *c += 1,
                None => self.counts.push((key, 1)),
            }
        }
        self.counts
            .iter()
            .find(|&&(_, c)| c > s.ports)
            .map(|&(key, count)| PortViolation {
                cycle: t,
                location: key,
                count,
                ports: s.ports,
                physical: layout.is_some(),
            })
    }
}

fn lcm(a: i64, b: i64) -> i64 {
    let g = gcd(a, b);
    (a / g).saturating_mul(b)
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Finds the minimal physical row count (≥ `logical_rows`) for which the
/// buffer, packed by `layout`, passes the physical check, trying up to
/// `logical_rows + 2g + 2` rows. The layout's own physical rows are not
/// read.
///
/// # Errors
///
/// Returns the stubborn violation if no slack in range fixes it — which
/// indicates a schedule-level (absolute-row) conflict, not an aliasing
/// artifact.
pub fn required_phys_rows(
    width: u32,
    height: u32,
    pixel_bits: u32,
    entities: &[ResolvedEntity],
    ports: u32,
    logical_rows: u32,
    layout: BlockLayout,
) -> Result<u32, PortViolation> {
    let mut last = None;
    for phys_rows in candidate_rows(logical_rows, layout.rows_per_block()) {
        let layout = layout.with_phys_rows(phys_rows);
        match check_accesses(width, height, pixel_bits, entities, ports, Some(&layout)) {
            Ok(()) => return Ok(phys_rows),
            Err(v) => last = Some(v),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// The physical row counts [`required_phys_rows`] tries, in order: the
/// logical rows plus `0..=2g + 2` slack rows, each rounded up to whole
/// blocks — coalesced buffers rotate block-aligned, since a
/// non-multiple-of-`g` row count would break the "adjacent rows share a
/// block" structure at the wrap-around point. Repeats are dropped; a
/// repeated count has its predecessor's verdict.
fn candidate_rows(logical_rows: u32, g: u32) -> impl Iterator<Item = u32> {
    let mut last = None;
    (0..=(2 * g + 2)).filter_map(move |slack| {
        let phys_rows = (logical_rows + slack).div_ceil(g) * g;
        (last.replace(phys_rows) != Some(phys_rows)).then_some(phys_rows)
    })
}

/// Everything the planner's two port checks read for one line buffer:
/// its frame, ports, block layout and resolved access streams.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BufferCheck {
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, rows.
    pub height: u32,
    /// Bits per pixel.
    pub pixel_bits: u32,
    /// Ports per block.
    pub ports: u32,
    /// Rows the schedule keeps live (the physical search's floor).
    pub logical_rows: u32,
    /// How the rows pack into blocks; the physical rows are the checks'
    /// to find, so the layout holds none.
    pub layout: BlockLayout,
    /// The writer's and readers' access streams.
    pub streams: Vec<ResolvedEntity>,
}

/// A buffer's physical rows, or the first violation of the check that
/// failed, and whether deciding it needed the row scanner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BufferVerdict {
    /// The minimal physical rows, or the violation: absolute when the
    /// absolute-row check fails, else the last candidate's physical one.
    pub phys_rows: Result<u32, PortViolation>,
    /// Whether the row scanner ran.
    pub scanned: bool,
}

impl BufferCheck {
    /// The row scanner's verdict: [`check_accesses`] on absolute rows,
    /// then [`required_phys_rows`]. The reference [`BufferCheck::verdict`]
    /// equals.
    ///
    /// # Errors
    ///
    /// The absolute violation, or the physical search's last one.
    pub fn scan(&self) -> Result<u32, PortViolation> {
        check_accesses(
            self.width,
            self.height,
            self.pixel_bits,
            &self.streams,
            self.ports,
            None,
        )?;
        required_phys_rows(
            self.width,
            self.height,
            self.pixel_bits,
            &self.streams,
            self.ports,
            self.logical_rows,
            self.layout,
        )
    }

    /// [`BufferCheck::scan`]'s result, decided by arithmetic wherever it
    /// is certain (see the [module docs](self)) and by the scanner
    /// elsewhere.
    pub fn verdict(&self) -> BufferVerdict {
        // A window taller than the frame always clamps, so the steady
        // count could never certify a reject, while listing its rows would
        // cost memory in its height; the scanner counts it clamped.
        let covered = !self.layout.is_split()
            && self
                .streams
                .iter()
                .all(|e| e.is_unit_rate() && e.fits(self.height));
        if !covered {
            return BufferVerdict {
                phys_rows: self.scan(),
                scanned: true,
            };
        }
        let streams = Streams {
            width: self.width,
            height: self.height,
            pixel_bits: self.pixel_bits,
            entities: &self.streams,
            ports: self.ports,
        };
        let arithmetic = Arithmetic::new(&streams);
        let mut scratch = Scratch::default();
        let scan = |layout: Option<&BlockLayout>| {
            check_accesses(
                self.width,
                self.height,
                self.pixel_bits,
                &self.streams,
                self.ports,
                layout,
            )
        };
        let mut scanned = false;
        if arithmetic.decide(&streams, None, &mut scratch) != Decision::Accept {
            // An absolute reject is reported with the scanner's violation.
            scanned = true;
            if let Err(v) = scan(None) {
                return BufferVerdict {
                    phys_rows: Err(v),
                    scanned,
                };
            }
        }
        let mut layout = self.layout;
        for phys_rows in candidate_rows(self.logical_rows, layout.rows_per_block()) {
            layout = layout.with_phys_rows(phys_rows);
            let passes = match arithmetic.decide(&streams, Some(&layout), &mut scratch) {
                Decision::Accept => true,
                Decision::Reject => false,
                Decision::Unsure => {
                    scanned = true;
                    scan(Some(&layout)).is_ok()
                }
            };
            if passes {
                return BufferVerdict {
                    phys_rows: Ok(phys_rows),
                    scanned,
                };
            }
        }
        // No candidate passes: the error is the scanner's violation at
        // the last one.
        BufferVerdict {
            phys_rows: scan(Some(&layout)).map(|()| layout.phys_rows()),
            scanned: true,
        }
    }
}

/// What the arithmetic concludes about one layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Decision {
    /// The scanner finds no violation.
    Accept,
    /// The scanner finds a violation.
    Reject,
    /// A steady over-subscription that the scanned cycles may not
    /// realize: only the scanner can tell.
    Unsure,
}

/// Scratch space [`Arithmetic::decide`] reuses across layouts.
#[derive(Default)]
struct Scratch {
    cycle: CycleCount,
    blocks: Vec<u32>,
}

/// A rate-1, unsplit buffer's checks in closed form: its steady phases
/// and its folded cycles, neither of which depends on the layout.
struct Arithmetic {
    /// One per distinct start residue.
    phases: Vec<Phase>,
    /// Every phase's accessed rows, relative to raster row `Y`: one entry
    /// per distinct row and merge class, sorted within each phase.
    rows: Vec<i64>,
    /// The scanner's transition cycles at which some stream's whole
    /// window lies below the frame and folds onto its last row.
    folds: Vec<i64>,
}

/// One phase of [`Arithmetic`]: the cycles `Y·W + φ` with `φ` from one
/// start residue up to the next.
struct Phase {
    /// This phase's slice of [`Arithmetic::rows`].
    rows: std::ops::Range<usize>,
    /// The raster rows `Y` at which every stream is active and no window
    /// clamps: `lo..=hi`, empty when `lo > hi`.
    lo: i64,
    hi: i64,
}

impl Arithmetic {
    fn new(s: &Streams<'_>) -> Arithmetic {
        let (w, h) = (i64::from(s.width), i64::from(s.height));
        let mut residues: Vec<i64> = s.entities.iter().map(|e| e.start.rem_euclid(w)).collect();
        residues.sort_unstable();
        residues.dedup();

        let mut phases = Vec::with_capacity(residues.len());
        let mut rows = Vec::new();
        // (relative row, merge class): readers merge per start residue,
        // each writer is a class of its own.
        let mut accesses: Vec<(i64, i64)> = Vec::new();
        for &phi in &residues {
            accesses.clear();
            let (mut lo, mut hi) = (i64::MIN, i64::MAX);
            for (i, e) in s.entities.iter().enumerate() {
                let (q, r) = (e.start.div_euclid(w), e.start.rem_euclid(w));
                // At `t = Y·W + phi` the stream is on raster row `Y - behind`.
                let behind = q + i64::from(phi < r);
                lo = lo.max(behind);
                hi = hi.min(behind + h - i64::from(e.row_offset + e.height));
                let class = if e.is_writer { -1 - i as i64 } else { r };
                let top = i64::from(e.row_offset) - behind;
                accesses.extend((top..top + i64::from(e.height)).map(|d| (d, class)));
            }
            accesses.sort_unstable();
            accesses.dedup();
            let start = rows.len();
            rows.extend(accesses.iter().map(|&(d, _)| d));
            phases.push(Phase {
                rows: start..rows.len(),
                lo,
                hi,
            });
        }

        // A stream on raster row `y ≥ H - row_offset` reads only rows
        // below the frame, which clamp onto row `H - 1`.
        let mut folds = Vec::new();
        for e in s.entities.iter().filter(|e| e.row_offset > 0) {
            let from = e.start + (h - i64::from(e.row_offset)).max(0) * w;
            let to = e.start + h * w;
            for k in s.entities {
                let first = -(k.start - from).div_euclid(w);
                let last = (to - 1 - k.start).div_euclid(w);
                folds.extend((first.max(0)..=last.min(h - 1)).map(|n| k.start + n * w));
            }
        }
        folds.sort_unstable();
        folds.dedup();
        Arithmetic {
            phases,
            rows,
            folds,
        }
    }

    /// Decides the check at `layout` (`None`: absolute rows). A physical
    /// layout's rows must be whole blocks.
    fn decide(
        &self,
        s: &Streams<'_>,
        layout: Option<&BlockLayout>,
        scratch: &mut Scratch,
    ) -> Decision {
        if self
            .folds
            .iter()
            .any(|&t| scratch.cycle.violation(s, layout, t).is_some())
        {
            return Decision::Reject;
        }
        let ports = s.ports as usize;
        // With `g = 1` and no rotation a block is a row.
        let (g, nblocks) = layout.map_or((1, 0), |l| {
            debug_assert_eq!(l.phys_rows() % l.rows_per_block(), 0, "whole blocks");
            (i64::from(l.rows_per_block()), l.blocks() as i64)
        });
        let mut decision = Decision::Accept;
        for phase in &self.phases {
            let rows = &self.rows[phase.rows.clone()];
            if rows.len() <= ports {
                continue;
            }
            for m in 0..g {
                // Whether steady cycles at rows `Y ≡ m (mod g)` put more
                // accesses than ports on one row or block.
                let over = if layout.is_none() {
                    rows.chunk_by(|a, b| a == b).any(|run| run.len() > ports)
                } else {
                    let blocks = &mut scratch.blocks;
                    blocks.clear();
                    blocks.resize(nblocks as usize, 0);
                    rows.iter().any(|&d| {
                        let b = &mut blocks[(m + d).div_euclid(g).rem_euclid(nblocks) as usize];
                        *b += 1;
                        *b as usize > ports
                    })
                };
                if !over {
                    continue;
                }
                // The first steady row `Y ≥ lo` with `Y ≡ m (mod g)`.
                if phase.lo + (m - phase.lo).rem_euclid(g) <= phase.hi {
                    return Decision::Reject;
                }
                decision = Decision::Unsure;
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u32 = 32;
    const H: u32 = 24;
    const PX: u32 = 16;

    fn writer() -> ResolvedEntity {
        ResolvedEntity::unit_rate(0, 0, 1, true)
    }

    fn reader(start: i64, h: u32) -> ResolvedEntity {
        ResolvedEntity::unit_rate(start, 0, h, false)
    }

    /// `phys_rows` rows of `W` pixels on blocks of `block_bits` bits, `g`
    /// rows to a block where a row fits one.
    fn rows_on(block_bits: u64, g: u32, phys_rows: u32) -> BlockLayout {
        BlockLayout::new((W * PX) as u64, block_bits, g).with_phys_rows(phys_rows)
    }

    #[test]
    fn classic_line_buffer_passes_dual_port() {
        // Consumer at the dependency bound 2W+1 with a 3-row window:
        // absolute rows overlap the writer (2 accesses) — fine on 2 ports.
        let ents = [writer(), reader(2 * W as i64 + 1, 3)];
        check_accesses(W, H, PX, &ents, 2, None).unwrap();
        // Physically: 3 rows rotate; writer+reader share a block: still 2.
        let layout = rows_on((W * PX) as u64, 1, 3);
        check_accesses(W, H, PX, &ents, 2, Some(&layout)).unwrap();
    }

    #[test]
    fn classic_line_buffer_fails_single_port() {
        let ents = [writer(), reader(2 * W as i64 + 1, 3)];
        let err = check_accesses(W, H, PX, &ents, 1, None).unwrap_err();
        assert!(err.count > 1);
    }

    #[test]
    fn row_disjoint_passes_single_port_absolute_but_aliases() {
        // FixyNN-style: reader delayed 3W (row-disjoint from the writer).
        let ents = [writer(), reader(3 * W as i64, 3)];
        check_accesses(W, H, PX, &ents, 1, None).unwrap();
        // But with only 3 physical rows the writer aliases the oldest
        // reader row.
        let layout = rows_on((W * PX) as u64, 1, 3);
        let err = check_accesses(W, H, PX, &ents, 1, Some(&layout)).unwrap_err();
        assert!(err.physical);
        // One slack row fixes it.
        let q = required_phys_rows(W, H, PX, &ents, 1, 3, layout).unwrap();
        assert_eq!(q, 4);
    }

    #[test]
    fn coalesced_fig7_needs_full_window_gap() {
        // g=2, P=2, 3-row window. At D = 2W+1 the writer lands on the
        // consumer's saturated block; at D = 3W it never does.
        let g2 = rows_on(2 * (W * PX) as u64, 2, 4);
        let tight = [writer(), reader(2 * W as i64 + 1, 3)];
        assert!(check_accesses(W, H, PX, &tight, 2, Some(&g2)).is_err());
        let spaced = [writer(), reader(3 * W as i64, 3)];
        let q = required_phys_rows(W, H, PX, &spaced, 2, 3, g2);
        assert!(q.is_ok(), "3W separation must be schedulable: {q:?}");
    }

    #[test]
    fn virtual_ports_counted_per_block() {
        // A 3-row window expressed as two ports (2+1) on g=2 blocks: the
        // two ports alone never exceed 2 accesses on any block.
        let ents = [
            ResolvedEntity::unit_rate(3 * W as i64, 0, 2, false),
            ResolvedEntity::unit_rate(3 * W as i64, 2, 1, false),
        ];
        let layout = rows_on(2 * (W * PX) as u64, 2, 4);
        check_accesses(W, H, PX, &ents, 2, Some(&layout)).unwrap();
    }

    #[test]
    fn split_rows_detect_segment_conflicts() {
        // Two entities on the same row but different columns: with the
        // row split into two blocks they may or may not collide depending
        // on the segment. Same column -> same segment -> collision on 1
        // port.
        let ents = [writer(), reader(3 * W as i64, 3)];
        let layout = rows_on(((W / 2) * PX) as u64, 1, 4);
        assert_eq!(layout.blocks_per_row(), 2);
        // Dual-port: fine.
        check_accesses(W, H, PX, &ents, 2, Some(&layout)).unwrap();
    }

    #[test]
    fn bottom_edge_clamping_reduces_rows() {
        // Near the bottom of the image the window clamps; no violation
        // may be reported from re-reading the clamped row.
        let ents = [writer(), reader(2 * W as i64 + 1, 3)];
        check_accesses(W, H, PX, &ents, 2, None).unwrap();
    }

    /// The pruned transition set must agree with the exhaustive per-row
    /// scan: deterministic pseudo-random entity sets on a frame tall
    /// enough that pruning actually drops the middle region.
    #[test]
    fn pruned_scan_matches_exhaustive() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x00c0_ffee_1234_5678);
        let mut next = move || rng.next_u64();
        let (w, h, px) = (32u32, 240u32, 16u32);
        for round in 0..60 {
            let n_ent = 2 + (round % 3);
            let entities: Vec<ResolvedEntity> = (0..n_ent)
                .map(|i| {
                    ResolvedEntity::unit_rate(
                        (next() % 6) as i64 * w as i64 + (next() % 3) as i64,
                        (next() % 3) as u32,
                        1 + (next() % 3) as u32,
                        i == 0,
                    )
                })
                .collect();
            let ports = 1 + (next() % 2) as u32;
            let layouts = [
                None,
                Some(
                    BlockLayout::new(
                        (w * px) as u64,
                        2 * (w * px) as u64,
                        1 + (next() % 2) as u32,
                    )
                    .with_phys_rows(2 + (next() % 6) as u32),
                ),
            ];
            for layout in &layouts {
                let pruned = check_accesses(w, h, px, &entities, ports, layout.as_ref());
                let all: Vec<i64> = (0..h as i64).collect();
                let full = check_accesses_at(w, h, px, &entities, ports, layout.as_ref(), &all);
                assert_eq!(
                    pruned, full,
                    "pruning changed the verdict for {entities:?} ports={ports} layout={layout:?}"
                );
            }
        }
    }

    /// Both checks read only start differences: shifting every start by
    /// `d` leaves each verdict as it was, except that a violation's cycle
    /// moves by `d`. The planner's port-check memo keys buffers on starts
    /// relative to the earliest one, so it rests on this. Random rate-1
    /// and strided stream sets, every layout kind, on a tall frame (the
    /// scan prunes to a head and a tail) and one shorter than any scan
    /// margin (it scans every row).
    #[test]
    fn shifted_starts_move_only_the_violation_cycle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0005_41f7_ed57_a275);
        let mut next = move |n: u64| rng.next_u64() % n;
        let (w, px) = (32u32, 16u32);
        let row = (w * px) as u64;
        let moved = |v: PortViolation, d: i64| PortViolation {
            cycle: v.cycle + d,
            ..v
        };
        let (mut passed, mut violated) = (0, 0);
        for round in 0..96 {
            let h = if round % 2 == 0 { 240 } else { 8 };
            // Within one buffer every stream shares the producer's grid;
            // readers keep their own row cadence.
            let strided = round % 3 != 0;
            let (row_div, col_div) = if strided {
                (1 + next(2) as u32, 1 + next(2) as u32)
            } else {
                (1, 1)
            };
            let entities: Vec<ResolvedEntity> = (0..2 + next(3))
                .map(|i| ResolvedEntity {
                    start: next(6) as i64 * w as i64 + next(3) as i64,
                    row_offset: next(3) as u32,
                    height: 1 + next(3) as u32,
                    is_writer: i == 0,
                    row_div,
                    col_div,
                    row_active: if strided { 1 + next(2) as u32 } else { 1 },
                })
                .collect();
            let ports = 1 + next(2) as u32;
            let logical_rows = 1 + next(4) as u32;
            // (rows per block, blocks per row, block bits): rotating,
            // coalesced with g = 2, and split-row.
            let kinds = [(1, 1, row), (2, 1, 2 * row), (1, 2, row / 2)];
            let kinds = kinds.map(|(g, blocks_per_row, block_bits)| {
                let layout = BlockLayout::new(row, block_bits, g);
                assert_eq!(layout.blocks_per_row(), blocks_per_row);
                layout
            });
            let layouts: Vec<Option<BlockLayout>> = std::iter::once(None)
                .chain(
                    kinds
                        .iter()
                        .map(|l| Some(l.with_phys_rows(l.rows_per_block() * (1 + next(4) as u32)))),
                )
                .collect();
            for d in [1, w as i64 - 1, w as i64, 7 * w as i64 + 3] {
                let shifted: Vec<ResolvedEntity> = entities
                    .iter()
                    .map(|e| ResolvedEntity {
                        start: e.start + d,
                        ..*e
                    })
                    .collect();
                for layout in &layouts {
                    let base = check_accesses(w, h, px, &entities, ports, layout.as_ref());
                    match base {
                        Ok(()) => passed += 1,
                        Err(_) => violated += 1,
                    }
                    assert_eq!(
                        check_accesses(w, h, px, &shifted, ports, layout.as_ref()),
                        base.map_err(|v| moved(v, d)),
                        "shift {d} changed the verdict for {entities:?} ports={ports} \
                         layout={layout:?} height={h}"
                    );
                }
                for &layout in &kinds {
                    let rows = |ents: &[ResolvedEntity]| {
                        required_phys_rows(w, h, px, ents, ports, logical_rows, layout)
                    };
                    assert_eq!(
                        rows(&shifted),
                        rows(&entities).map_err(|v| moved(v, d)),
                        "shift {d} changed the physical rows for {entities:?} ports={ports} \
                         layout={layout:?} height={h}"
                    );
                }
            }
        }
        assert!(
            passed > 0 && violated > 0,
            "both verdicts occur: {passed} passed, {violated} violated"
        );
    }

    /// [`BufferCheck::scan`] with every row advance scanned, trying each
    /// slack as [`required_phys_rows`] always has.
    fn exhaustive_scan(c: &BufferCheck) -> Result<u32, PortViolation> {
        let every_row: Vec<i64> = (0..c.height as i64).collect();
        let scan = |layout: Option<&BlockLayout>| {
            check_accesses_at(
                c.width,
                c.height,
                c.pixel_bits,
                &c.streams,
                c.ports,
                layout,
                &every_row,
            )
        };
        scan(None)?;
        let g = c.layout.rows_per_block();
        let mut last = None;
        for slack in 0..=(2 * g + 2) {
            let layout = c
                .layout
                .with_phys_rows((c.logical_rows + slack).div_ceil(g) * g);
            match scan(Some(&layout)) {
                Ok(()) => return Ok(layout.phys_rows()),
                Err(v) => last = Some(v),
            }
        }
        Err(last.expect("at least one candidate"))
    }

    /// The arithmetic against the exhaustive scan, on random rate-1
    /// buffers: 2–6 streams, 1–4 ports, `g` of 1–4, short frames and tall
    /// ones (where the pruned scan skips the middle), readers whose row
    /// offsets fold their windows below the bottom edge, and starts that
    /// share residues. Each layout the arithmetic decides — the absolute
    /// rows and every candidate rotation — gets the exhaustive scan's
    /// verdict unless it defers to the scanner, and [`BufferCheck::verdict`]
    /// returns the exhaustive scan's physical rows or its violation, cycle
    /// included, as the pruned scan does; a window taller than the frame
    /// goes to the scanner. Certain rejects and ones only the scanner can
    /// settle both occur.
    #[test]
    fn arithmetic_agrees_with_the_exhaustive_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0a71_7e3e_71c5_ca9e);
        let mut next = move |n: u64| rng.next_u64() % n;
        let px = 16u32;
        let (mut accepts, mut rejects, mut unsure, mut scanned) = (0, 0, 0, 0);
        for round in 0..480u64 {
            let w = [8u32, 16, 32][next(3) as usize];
            let h = [5u32, 9, 14, 31, 96][(round % 5) as usize];
            let g = 1 + next(4) as u32;
            // A few residues shared by several readers, so some merge.
            let residues = [0, next(w as u64), next(w as u64)];
            let streams: Vec<ResolvedEntity> = (0..2 + next(5))
                .map(|i| {
                    let start = (next(7) * w as u64 + residues[next(3) as usize]) as i64;
                    if i == 0 {
                        ResolvedEntity::unit_rate(start, 0, 1, true)
                    } else {
                        ResolvedEntity::unit_rate(start, next(4) as u32, 1 + next(4) as u32, false)
                    }
                })
                .collect();
            let check = BufferCheck {
                width: w,
                height: h,
                pixel_bits: px,
                ports: 1 + next(4) as u32,
                logical_rows: 1 + next(6) as u32,
                layout: BlockLayout::new(u64::from(w * px), u64::from(g * w * px), g),
                streams,
            };
            let exhaustive = exhaustive_scan(&check);
            let verdict = check.verdict();
            assert_eq!(verdict.phys_rows, exhaustive, "verdict of {check:?}");
            assert_eq!(check.scan(), exhaustive, "pruned scan of {check:?}");
            if check.streams.iter().any(|e| !e.fits(h)) {
                assert!(verdict.scanned, "a window taller than the frame scans");
            }
            scanned += usize::from(verdict.scanned);

            let s = Streams {
                width: w,
                height: h,
                pixel_bits: px,
                entities: &check.streams,
                ports: check.ports,
            };
            let arithmetic = Arithmetic::new(&s);
            let mut scratch = Scratch::default();
            let every_row: Vec<i64> = (0..h as i64).collect();
            let layouts = candidate_rows(check.logical_rows, g)
                .map(|phys_rows| Some(check.layout.with_phys_rows(phys_rows)));
            for layout in std::iter::once(None).chain(layouts) {
                let truth = check_accesses_at(
                    w,
                    h,
                    px,
                    &check.streams,
                    check.ports,
                    layout.as_ref(),
                    &every_row,
                );
                match arithmetic.decide(&s, layout.as_ref(), &mut scratch) {
                    Decision::Accept => {
                        accepts += 1;
                        assert_eq!(truth, Ok(()), "accepted {layout:?} of {check:?}");
                    }
                    Decision::Reject => {
                        rejects += 1;
                        assert!(truth.is_err(), "rejected {layout:?} of {check:?}");
                    }
                    Decision::Unsure => unsure += 1,
                }
            }
        }
        assert!(
            accepts > 0 && rejects > 0 && unsure > 0,
            "{accepts} accepts, {rejects} certain rejects, {unsure} left to the scanner"
        );
        assert!(scanned < 480, "the arithmetic decides most buffers alone");
    }

    #[test]
    fn stubborn_violation_reported() {
        // Two unsynchronized readers overlapping on a single port can
        // never be fixed by slack.
        let ents = [reader(0, 2), reader(1, 2)];
        let err = required_phys_rows(W, H, PX, &ents, 1, 2, rows_on((W * PX) as u64, 1, 0));
        assert!(err.is_err());
    }
}
