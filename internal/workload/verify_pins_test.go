package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/isa/verify"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

var updateVerify = flag.Bool("update-verify", false,
	"rewrite testdata/verify_pins.txt from the current verifier")

// verifyPinsFile pins the verifier's reports on generated programs: per
// combo, the SHA-256 of the JSON-encoded SetReport. Clean reports pin
// Budget, SpinSites, Barriers and MemOps; the strict-mode and
// narrow-footprint sets also pin every diagnostic and its order.
const verifyPinsFile = "testdata/verify_pins.txt"

func TestVerifyReportsMatchPins(t *testing.T) {
	var want map[string]string
	if !*updateVerify {
		want = readPins(t, verifyPinsFile, "-update-verify")
	}
	var b strings.Builder
	b.WriteString("# Per combo: SHA-256 of the JSON-encoded verify.SetReport of its thread set.\n")
	b.WriteString("# <profile>/<style or lock+barrier>/<flavour>/<cores>/<options>, where trusted\n")
	b.WriteString("# and strict verify against the layout footprint and narrow (trusted) against\n")
	b.WriteString("# the first half of its first range. Regenerate only for an intended change:\n")
	b.WriteString("# go test ./internal/workload -run TestVerifyReportsMatchPins -update-verify\n")
	check := func(key string, g *Generated, opts verify.Options) *verify.SetReport {
		set := verify.Threads(g.Programs, opts)
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&b, "%s %s\n", key, got)
		if *updateVerify {
			return set
		}
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no pinned hash in %s", key, verifyPinsFile)
		} else if got != w {
			t.Errorf("%s: report hash %s, pinned %s", key, got, w)
		}
		return set
	}
	diags := 0
	trusted := func(g *Generated) verify.Options {
		return verify.Options{Footprint: g.Footprint(), Mode: verify.ModeTrusted}
	}
	flavors := []synclib.Flavor{
		synclib.FlavorMESI, synclib.FlavorBackoff,
		synclib.FlavorCBAll, synclib.FlavorCBOne,
	}
	for _, p := range Profiles() {
		for _, style := range []SyncStyle{StyleScalable, StyleNaive} {
			for _, f := range flavors {
				name := fmt.Sprintf("%s/%s/%s", p.Name, style, f)
				g := Generate(p, 4, style, f)
				check(name+"/4/trusted", g, trusted(g))
				diags += len(check(name+"/4/strict", g, verify.Options{Footprint: g.Footprint(), Mode: verify.ModeStrict}).AllDiags())
				diags += len(check(name+"/4/narrow", g, verify.Options{Footprint: narrowFootprint(g.Footprint()), Mode: verify.ModeTrusted}).AllDiags())
				g = Generate(p, 16, style, f)
				check(name+"/16/trusted", g, trusted(g))
			}
		}
		// The Figure 23 mixes, including the two off-diagonal ones no
		// style generates.
		for _, lk := range []LockKind{LockTTAS, LockCLH} {
			for _, bk := range []BarrierKind{BarrierSR, BarrierTree} {
				g := GenerateCustom(p, 16, lk, bk, synclib.FlavorCBOne)
				check(fmt.Sprintf("%s/%s+%s/%s/16/trusted", p.Name, lk, bk, synclib.FlavorCBOne), g, trusted(g))
			}
		}
	}
	t.Logf("strict and narrow reports carry %d diagnostics", diags)
	if diags == 0 {
		t.Error("strict and narrow reports carry no diagnostics: the pins cover none")
	}
	fluid, err := ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flavors {
		g := Generate(fluid, 64, StyleScalable, f)
		check(fmt.Sprintf("fluidanimate/scalable/%s/64/trusted", f), g, trusted(g))
	}
	if *updateVerify {
		if err := os.WriteFile(verifyPinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// narrowFootprint keeps the first half of fp's first range, so accesses
// beyond it draw memory diagnostics.
func narrowFootprint(fp *verify.Footprint) *verify.Footprint {
	out := &verify.Footprint{AllowIndirect: fp.AllowIndirect}
	r := fp.Ranges()[0]
	out.AddRange(memtypes.Addr(r[0]), (r[1]-r[0])/2)
	return out
}
