package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/synclib"
)

var updateDisasm = flag.Bool("update-disasm", false,
	"rewrite testdata/disasm_pins.txt from the current generator")

// disasmPinsFile pins the disassembly of every generated program: per
// profile, style and flavour at 16 cores, the SHA-256 over one line per
// instruction of every thread. Generated programs verify clean, so a
// lost or shifted branch label name would show nowhere else.
const disasmPinsFile = "testdata/disasm_pins.txt"

const disasmPinCores = 16

func disasmHash(g *Generated) string {
	h := sha256.New()
	for tid, p := range g.Programs {
		for pc := range p.Ins {
			fmt.Fprintf(h, "t%d %d %s\n", tid, pc, p.Disasm(pc))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDisassemblyMatchesPins(t *testing.T) {
	want := map[string]string{}
	if !*updateDisasm {
		raw, err := os.ReadFile(disasmPinsFile)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-disasm)", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("%s: malformed line %q", disasmPinsFile, line)
			}
			want[fields[0]] = fields[1]
		}
	}
	var b strings.Builder
	b.WriteString("# Per profile/style/flavour at 16 cores: SHA-256 over the disassembly of\n")
	b.WriteString("# every generated thread, one \"t<tid> <pc> <instr>\" line per instruction.\n")
	b.WriteString("# Regenerate only for an intended generator change:\n")
	b.WriteString("# go test ./internal/workload -run TestDisassemblyMatchesPins -update-disasm\n")
	flavors := []synclib.Flavor{
		synclib.FlavorMESI, synclib.FlavorBackoff,
		synclib.FlavorCBAll, synclib.FlavorCBOne,
	}
	for _, p := range Profiles() {
		for _, style := range []SyncStyle{StyleScalable, StyleNaive} {
			for _, f := range flavors {
				key := fmt.Sprintf("%s/%s/%s", p.Name, style, f)
				got := disasmHash(Generate(p, disasmPinCores, style, f))
				fmt.Fprintf(&b, "%s %s\n", key, got)
				if *updateDisasm {
					continue
				}
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no pinned hash in %s", key, disasmPinsFile)
				} else if got != w {
					t.Errorf("%s: disassembly hash %s, pinned %s", key, got, w)
				}
			}
		}
	}
	if *updateDisasm {
		if err := os.WriteFile(disasmPinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
