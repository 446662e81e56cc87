package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateIdentity = flag.Bool("update-identity", false,
	"rewrite testdata/mesi_identity.txt from the current simulator")

// identityFile pins the exact outcome of Invalidation (MESI) cells: the
// SHA-256 of json.Marshal(Result) per cell. The hashes were recorded
// before spin parking existed, so they are the reference that parked
// spin loops must reproduce byte for byte (Stats, energy and, with
// CycleStacks on, the per-core cycle stacks).
const identityFile = "testdata/mesi_identity.txt"

type identityCell struct {
	setup  string
	bench  string
	style  workload.SyncStyle
	cores  int
	cycles bool
	// entries sizes the callback directories; 0 keeps the default.
	entries int
}

// key names the cell in its pin file; Invalidation cells, the first
// pinned, omit the setup, and cells at the default directory size omit
// the entries.
func (c identityCell) key() string {
	k := fmt.Sprintf("%s/%s/%d/cycles=%v", c.bench, c.style, c.cores, c.cycles)
	if c.setup != "Invalidation" {
		k = c.setup + "/" + k
	}
	if c.entries != 0 {
		k += fmt.Sprintf("/entries=%d", c.entries)
	}
	return k
}

// identityCells lists every 16-core Invalidation cell of the suite, with
// and without cycle accounting, plus the reduced reproduction's three
// benchmarks at 64 cores (skipped under -short).
func identityCells(short bool) []identityCell {
	var cells []identityCell
	for _, p := range workload.Profiles() {
		for _, style := range []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive} {
			for _, cyc := range []bool{false, true} {
				cells = append(cells, identityCell{"Invalidation", p.Name, style, 16, cyc, 0})
			}
		}
	}
	if !short {
		for _, name := range []string{"radiosity", "fft", "dedup"} {
			for _, style := range []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive} {
				cells = append(cells, identityCell{"Invalidation", name, style, 64, false, 0})
			}
		}
	}
	return cells
}

func identityHash(t *testing.T, c identityCell) string {
	t.Helper()
	h, err := cellHash(c)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cellHash runs c and hashes its Result.
func cellHash(c identityCell) (string, error) {
	p, err := workload.ByName(c.bench)
	if err != nil {
		return "", err
	}
	s, err := SetupByName(c.setup)
	if err != nil {
		return "", err
	}
	r, err := RunBenchmark(p, s, c.style, Options{Cores: c.cores, Parallelism: 1, CycleStacks: c.cycles, CBEntries: c.entries})
	if err != nil {
		return "", fmt.Errorf("%s: %w", c.key(), err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func readIdentity(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", file, line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// Every Invalidation cell reproduces its pinned Stats hash exactly.
func TestInvalidationCellsMatchPinnedHashes(t *testing.T) {
	cells := identityCells(testing.Short() && !*updateIdentity)
	if *updateIdentity {
		var b strings.Builder
		b.WriteString("# SHA-256 of json.Marshal(experiments.Result) per Invalidation cell:\n")
		b.WriteString("# benchmark/style/cores/cycles=<CycleStacks> hash. Regenerate only for an\n")
		b.WriteString("# intended behaviour change: go test -run TestInvalidationCellsMatchPinnedHashes -update-identity\n")
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.key(), identityHash(t, c))
		}
		if err := os.WriteFile(identityFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readIdentity(t, identityFile)
	for _, c := range cells {
		w, ok := want[c.key()]
		if !ok {
			t.Fatalf("%s: no pinned hash in %s", c.key(), identityFile)
		}
		if got := identityHash(t, c); got != w {
			t.Errorf("%s: Result hash %s, pinned %s", c.key(), got, w)
		}
	}
}
