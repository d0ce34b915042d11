//! The five workloads: one job shape each, chosen so that one is
//! scan-bound, one shuffle-bound, one distributed, one spilling and one
//! fixed-cost-bound. See `benchmark/README.md` for why each exists.

/// Where the job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// In-process engine, in a `sidr-benchmark engine-child` process.
    Engine,
    /// `sidr-serve` coordinating two `sidr-worker` processes.
    Fleet,
}

/// The query's operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Max,
    Median,
    Mean,
}

/// The dataset's element type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elem {
    F32,
    F64,
}

impl Elem {
    pub fn size(self) -> u64 {
        match self {
            Elem::F32 => 4,
            Elem::F64 => 8,
        }
    }
}

/// Map and reduce slots of every system under test.
pub const MAP_SLOTS: usize = 2;
pub const REDUCE_SLOTS: usize = 2;
/// Workers in a fleet.
pub const FLEET_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; states the loop kind and client count.
    pub why: &'static str,
    pub mode: Mode,
    pub op: Op,
    pub elem: Elem,
    pub space: &'static [u64],
    pub extraction: &'static [u64],
    /// Leading-dimension rows per input split.
    pub rows_per_split: u64,
    pub reducers: usize,
    /// Closed-loop clients: each sends its next job when the previous
    /// one's terminal frame arrived.
    pub clients: usize,
    /// Per-worker resident partition budget; 0 = unbounded.
    pub budget_bytes: u64,
}

impl Workload {
    pub fn input_records(&self) -> u64 {
        self.space.iter().product()
    }

    pub fn dataset_bytes(&self) -> u64 {
        self.input_records() * self.elem.size()
    }
}

/// Figure 8's weekly down-sampling `{7,5,1}` over 364 days, with the
/// lat/lon plane at a quarter of the paper's `{250,200}`: 52 maps and
/// 22 keyblocks as in the figure, 4.55 M f64 records (36 MB). The
/// quarter plane is what lets one run hold ten or more jobs inside the
/// driver's time cap (see README, "Scale"); `{250,50}` rather than
/// `{125,100}` because partition+'s dealing unit must tile `K'`
/// evenly or admission rejects the plan for skew (SIDR-E005).
const FIG08_SPACE: &[u64] = &[364, 250, 50];
const FIG08_EXTRACTION: &[u64] = &[7, 5, 1];

const fn fig08(name: &'static str, why: &'static str, mode: Mode, op: Op, budget: u64) -> Workload {
    Workload {
        name,
        why,
        mode,
        op,
        elem: Elem::F64,
        space: FIG08_SPACE,
        extraction: FIG08_EXTRACTION,
        rows_per_split: 7,
        reducers: 22,
        clients: 1,
        budget_bytes: budget,
    }
}

pub const WORKLOADS: &[Workload] = &[
    fig08(
        "engine-scan",
        "max (has a combiner) on the in-process engine: split read and map fn are the work, shuffle/serve/worker idle; closed loop, 1 client",
        Mode::Engine,
        Op::Max,
        0,
    ),
    fig08(
        "engine-shuffle",
        "median (no combiner), same input: every record crosses encode, store, merge and a sorting reduce; closed loop, 1 client",
        Mode::Engine,
        Op::Median,
        0,
    ),
    fig08(
        "fleet-shuffle",
        "the same median JobSpec through sidr-serve and 2 sidr-workers: adds admission, dispatch, peer fetch, frame encode; closed loop, 1 client",
        Mode::Fleet,
        Op::Median,
        0,
    ),
    fig08(
        "fleet-spill",
        "fleet-shuffle with workers at --memory-budget 4m (1.5 map outputs): the tier layer's spill writes and CRC read-backs; closed loop, 1 client",
        Mode::Fleet,
        Op::Median,
        // 16 MiB against 11 MB map outputs at the paper's scale; a
        // quarter of both here.
        4 << 20,
    ),
    Workload {
        name: "fleet-tiny",
        why: "query1-tiny (2.5 MB, 12 maps, 4 keyblocks) on the fleet: plan, admission, dispatch round-trips and waits are the wall; closed loop, 2 clients",
        mode: Mode::Fleet,
        op: Op::Mean,
        elem: Elem::F32,
        space: &[48, 36, 36, 10],
        extraction: &[2, 36, 36, 10],
        rows_per_split: 4,
        reducers: 4,
        clients: 2,
        budget_bytes: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
