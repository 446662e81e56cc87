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

// vipsIdentityFile pins the exact outcome of the VIPS cells the way
// identityFile pins the Invalidation cells. The back-off hashes were
// recorded before back-off spins on a core's own bank were parked, so
// they are the reference the parked loops must reproduce byte for byte;
// the callback hashes were recorded before the callback directory kept
// its per-core bits as bit vectors.
const vipsIdentityFile = "testdata/vips_identity.txt"

var (
	backoffSetups  = []string{"BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15"}
	callbackSetups = []string{"CB-All", "CB-One"}
)

// vipsIdentityCells lists every 16-core back-off cell of the suite, with
// and without cycle accounting, plus the reduced reproduction's back-off
// cells at 64 cores; then the same 16-core cells under CB-All and CB-One,
// plus the reduced reproduction's callback cells at 64 cores with 1- and
// 4-entry directories. The 64-core cells are skipped under -short.
func vipsIdentityCells(short bool) []identityCell {
	styles := []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive}
	var cells []identityCell
	add16 := func(setups []string) {
		for _, s := range setups {
			for _, p := range workload.Profiles() {
				for _, style := range styles {
					for _, cyc := range []bool{false, true} {
						cells = append(cells, identityCell{s, p.Name, style, 16, cyc, 0})
					}
				}
			}
		}
	}
	add64 := func(setups []string, entries ...int) {
		for _, s := range setups {
			for _, name := range []string{"radiosity", "fft", "dedup"} {
				for _, style := range styles {
					for _, e := range entries {
						cells = append(cells, identityCell{s, name, style, 64, false, e})
					}
				}
			}
		}
	}
	add16(backoffSetups)
	if !short {
		add64(backoffSetups, 0)
	}
	add16(callbackSetups)
	if !short {
		add64(callbackSetups, 1, 4)
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

// Every back-off and callback cell reproduces its pinned Result hash
// exactly.
func TestBackoffCellsMatchPinnedHashes(t *testing.T) {
	cells := vipsIdentityCells(testing.Short() && !*updateVIPSIdentity)
	got := identityHashes(t, cells)
	if *updateVIPSIdentity {
		var b strings.Builder
		b.WriteString("# SHA-256 of json.Marshal(experiments.Result) per back-off or callback cell:\n")
		b.WriteString("# setup/benchmark/style/cores/cycles=<CycleStacks>[/entries=<n>] hash. Regenerate only for an\n")
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
