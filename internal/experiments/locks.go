package experiments

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/synclib"
)

// ExtensionLocks compares all five lock algorithms (the paper's T&S,
// T&T&S, CLH plus the ticket and MCS extensions) on the contended-lock
// microbenchmark across the standard setups, reporting mean acquire
// latency. It generalizes the lock half of Figure 20 and tests whether
// the paper's "callbacks make naive synchronization as good as scalable"
// claim extends to other algorithms.
func ExtensionLocks(o Options) (lat, llc *metrics.Table, err error) {
	o = o.fill()
	// The standard seven setups plus the VIPS-M blocking-bit queue lock
	// the paper contrasts against.
	setups := append(StandardSetups(),
		Setup{Name: "QueueLock", Protocol: machine.ProtocolQueueLock, BackoffLimit: 10})
	cols := make([]string, len(setups))
	for i, s := range setups {
		cols[i] = s.Name
	}
	lat = metrics.NewTable("Lock extension study (mean acquire latency, cycles)", cols...)
	llc = metrics.NewTable("Lock extension study (sync LLC accesses)", cols...)

	locks := []Micro{
		lockMicro("T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTASLock(l) }),
		lockMicro("T&T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTTASLock(l) }),
		lockMicro("Ticket", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTicketLock(l) }),
		lockMicro("CLH", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewCLHLock(l, n) }),
		lockMicro("MCS", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewMCSLock(l, n) }),
	}
	results := make([]MicroResult, len(locks)*len(setups))
	err = o.forEach(len(results), func(i int) error {
		lk, s := locks[i/len(setups)], setups[i%len(setups)]
		o.Logf("run lock-ext %-8s %-13s", lk.Name, s.Name)
		var err error
		results[i], err = RunMicro(lk, s, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for li, lk := range locks {
		latRow := make([]float64, len(setups))
		llcRow := make([]float64, len(setups))
		for i := range setups {
			r := results[li*len(setups)+i]
			latRow[i], llcRow[i] = r.Latency, r.LLCAccesses
		}
		lat.AddRow(lk.Name, latRow...)
		llc.AddRow(lk.Name, llcRow...)
	}
	return lat, llc, nil
}
