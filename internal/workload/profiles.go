package workload

// Profiles returns a copy of the 19 benchmark profiles standing in for
// the paper's evaluation set: the entire Splash-2 suite plus the PARSEC
// subset (Section 5.1).
func Profiles() []Profile { return append([]Profile(nil), profiles...) }

// profiles is the evaluation set, built once. Parameters encode each
// application's published synchronization character (barrier interval,
// lock count and contention, critical-section size, pipeline structure)
// scaled to simulation-budget-sized runs; the comments note the
// behaviour each profile models.
var profiles = []Profile{
	// ------------------------------- Splash-2 -------------------------------
	{
		// Barnes-Hut N-body: tree build under heavily contended
		// locks, then force phases separated by barriers.
		Name: "barnes", Suite: "splash2",
		Phases: 5, ComputePerPhase: 80000, DataLines: 12, WritePerMille: 400,
		LocksPerPhase: 8, NumLocks: 4, CSCompute: 120, CSDataLines: 2,
	},
	{
		// Sparse Cholesky: task-queue locks dominate; barriers
		// only delimit the factorization.
		Name: "cholesky", Suite: "splash2",
		Phases: 3, ComputePerPhase: 96000, DataLines: 10, WritePerMille: 350,
		LocksPerPhase: 12, NumLocks: 2, CSCompute: 160, CSDataLines: 2,
	},
	{
		// 1D FFT: transpose phases, barrier-synchronized, no
		// locking, all-to-all sharing.
		Name: "fft", Suite: "splash2",
		Phases: 6, ComputePerPhase: 128000, DataLines: 16, WritePerMille: 500,
		LocksPerPhase: 0, NumLocks: 1,
	},
	{
		// Fast multipole: interaction lists under locks plus
		// inter-phase barriers.
		Name: "fmm", Suite: "splash2",
		Phases: 6, ComputePerPhase: 112000, DataLines: 10, WritePerMille: 350,
		LocksPerPhase: 4, NumLocks: 8, CSCompute: 140, CSDataLines: 2,
	},
	{
		// Dense LU: many short barrier-separated elimination
		// steps; the diagonal block broadcast is read-shared.
		Name: "lu", Suite: "splash2",
		Phases: 12, ComputePerPhase: 57600, DataLines: 8, WritePerMille: 450,
		LocksPerPhase: 0, NumLocks: 1,
	},
	{
		// Ocean: the most barrier-intensive Splash-2 code (many
		// short red-black relaxation sweeps).
		Name: "ocean", Suite: "splash2",
		Phases: 20, ComputePerPhase: 38400, DataLines: 8, WritePerMille: 500,
		LocksPerPhase: 1, NumLocks: 4, CSCompute: 60, CSDataLines: 1,
	},
	{
		// Radiosity: distributed task queues — the most
		// lock-intensive Splash-2 application.
		Name: "radiosity", Suite: "splash2",
		Phases: 3, ComputePerPhase: 48000, DataLines: 6, WritePerMille: 300,
		LocksPerPhase: 16, NumLocks: 4, CSCompute: 100, CSDataLines: 1,
	},
	{
		// Radix sort: global histogram via barriers and a prefix
		// step with modest locking.
		Name: "radix", Suite: "splash2",
		Phases: 8, ComputePerPhase: 64000, DataLines: 12, WritePerMille: 600,
		LocksPerPhase: 1, NumLocks: 2, CSCompute: 80, CSDataLines: 2,
	},
	{
		// Raytrace: a single contended work-queue lock.
		Name: "raytrace", Suite: "splash2",
		Phases: 2, ComputePerPhase: 96000, DataLines: 6, WritePerMille: 200,
		LocksPerPhase: 16, NumLocks: 1, CSCompute: 80, CSDataLines: 1,
	},
	{
		// Volrend: work-queue locks plus a few barriers per frame.
		Name: "volrend", Suite: "splash2",
		Phases: 4, ComputePerPhase: 70400, DataLines: 6, WritePerMille: 250,
		LocksPerPhase: 8, NumLocks: 2, CSCompute: 80, CSDataLines: 1,
	},
	{
		// Water-nsquared: per-molecule locks (low contention) and
		// phase barriers.
		Name: "water-nsq", Suite: "splash2",
		Phases: 6, ComputePerPhase: 89600, DataLines: 8, WritePerMille: 400,
		LocksPerPhase: 6, NumLocks: 16, CSCompute: 100, CSDataLines: 1,
	},
	{
		// Water-spatial: cell-based decomposition, fewer locks
		// than nsquared.
		Name: "water-sp", Suite: "splash2",
		Phases: 6, ComputePerPhase: 89600, DataLines: 8, WritePerMille: 400,
		LocksPerPhase: 3, NumLocks: 16, CSCompute: 100, CSDataLines: 1,
	},
	// -------------------------------- PARSEC --------------------------------
	{
		// Blackscholes: embarrassingly parallel option pricing;
		// one barrier per sweep and nothing else.
		Name: "blackscholes", Suite: "parsec",
		Phases: 2, ComputePerPhase: 256000, DataLines: 8, WritePerMille: 300,
		LocksPerPhase: 0, NumLocks: 1,
	},
	{
		// Bodytrack: per-frame barriers plus a thread-pool
		// condition signalled between stages.
		Name: "bodytrack", Suite: "parsec",
		Phases: 6, ComputePerPhase: 80000, DataLines: 10, WritePerMille: 350,
		LocksPerPhase: 3, NumLocks: 4, CSCompute: 100, CSDataLines: 1,
		SignalWaitPairs: 4,
	},
	{
		// Canneal: lock-protected random element swaps with low
		// barrier frequency.
		Name: "canneal", Suite: "parsec",
		Phases: 3, ComputePerPhase: 64000, DataLines: 14, WritePerMille: 500,
		LocksPerPhase: 10, NumLocks: 8, CSCompute: 60, CSDataLines: 2,
	},
	{
		// Dedup: a pipeline — queues between stages are pure
		// signal/wait territory.
		Name: "dedup", Suite: "parsec",
		Phases: 4, ComputePerPhase: 57600, DataLines: 8, WritePerMille: 450,
		LocksPerPhase: 4, NumLocks: 4, CSCompute: 80, CSDataLines: 1,
		SignalWaitPairs: 8,
	},
	{
		// Fluidanimate: the most lock-intensive PARSEC member
		// (fine-grained per-cell locks) plus per-frame barriers.
		Name: "fluidanimate", Suite: "parsec",
		Phases: 6, ComputePerPhase: 48000, DataLines: 8, WritePerMille: 450,
		LocksPerPhase: 14, NumLocks: 12, CSCompute: 50, CSDataLines: 1,
	},
	{
		// Streamcluster: dominated by barriers between clustering
		// steps (the paper runs simsmall for it).
		Name: "streamcluster", Suite: "parsec",
		Phases: 16, ComputePerPhase: 44800, DataLines: 8, WritePerMille: 400,
		LocksPerPhase: 0, NumLocks: 1,
	},
	{
		// Swaptions: independent Monte-Carlo paths, nearly no
		// synchronization.
		Name: "swaptions", Suite: "parsec",
		Phases: 2, ComputePerPhase: 224000, DataLines: 6, WritePerMille: 250,
		LocksPerPhase: 0, NumLocks: 1,
	},
}

// Names returns the benchmark names in evaluation order.
func Names() []string {
	names := make([]string, len(profiles))
	for i := range profiles {
		names[i] = profiles[i].Name
	}
	return names
}
