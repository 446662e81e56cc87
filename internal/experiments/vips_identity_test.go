package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

var updateVIPSIdentity = flag.Bool("update-vips-identity", false,
	"rewrite testdata/vips_identity.txt from the current simulator")

// vipsIdentityFile pins the exact outcome of the back-off cells the way
// identityFile pins the Invalidation cells. The hashes were recorded
// before back-off spins on a core's own bank were parked, so they are the
// reference the parked loops must reproduce byte for byte.
const vipsIdentityFile = "testdata/vips_identity.txt"

var backoffSetups = []string{"BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15"}

// vipsIdentityCells lists every 16-core back-off cell of the suite, with
// and without cycle accounting, plus the reduced reproduction's back-off
// cells at 64 cores (skipped under -short).
func vipsIdentityCells(short bool) []identityCell {
	styles := []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive}
	var cells []identityCell
	for _, s := range backoffSetups {
		for _, p := range workload.Profiles() {
			for _, style := range styles {
				for _, cyc := range []bool{false, true} {
					cells = append(cells, identityCell{s, p.Name, style, 16, cyc})
				}
			}
		}
	}
	if !short {
		for _, s := range backoffSetups {
			for _, name := range []string{"radiosity", "fft", "dedup"} {
				for _, style := range styles {
					cells = append(cells, identityCell{s, name, style, 64, false})
				}
			}
		}
	}
	return cells
}

// identityHashes hashes cells on GOMAXPROCS workers; out[i] is cells[i]'s.
func identityHashes(t *testing.T, cells []identityCell) []string {
	t.Helper()
	out := make([]string, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = cellHash(cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// Every back-off cell reproduces its pinned Result hash exactly.
func TestBackoffCellsMatchPinnedHashes(t *testing.T) {
	cells := vipsIdentityCells(testing.Short() && !*updateVIPSIdentity)
	got := identityHashes(t, cells)
	if *updateVIPSIdentity {
		var b strings.Builder
		b.WriteString("# SHA-256 of json.Marshal(experiments.Result) per back-off cell:\n")
		b.WriteString("# setup/benchmark/style/cores/cycles=<CycleStacks> hash. Regenerate only for an\n")
		b.WriteString("# intended behaviour change: go test -run TestBackoffCellsMatchPinnedHashes -update-vips-identity\n")
		for i, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.key(), got[i])
		}
		if err := os.WriteFile(vipsIdentityFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readIdentity(t, vipsIdentityFile)
	for i, c := range cells {
		w, ok := want[c.key()]
		if !ok {
			t.Fatalf("%s: no pinned hash in %s", c.key(), vipsIdentityFile)
		}
		if got[i] != w {
			t.Errorf("%s: Result hash %s, pinned %s", c.key(), got[i], w)
		}
	}
}
