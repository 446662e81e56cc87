package mem

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/digest"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

// refDigest is the store digest as a word map computes it: the number
// of words held, then each word's address and value in ascending address
// order. The map holds no zero word, since storing zero deletes.
func refDigest(words map[memtypes.Addr]uint64) uint64 {
	addrs := make([]memtypes.Addr, 0, len(words))
	for a := range words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := digest.New()
	h.Int(len(addrs))
	for _, a := range addrs {
		h.U64(uint64(a))
		h.U64(words[a])
	}
	return h.Sum()
}

// storeAddr draws an address: in one of the synclib regions, next to a
// page or line boundary, or in one of the far pages, and not always
// word-aligned.
func storeAddr(r *rand.Rand, far []memtypes.Addr) memtypes.Addr {
	var a memtypes.Addr
	switch r.Intn(5) {
	case 0:
		a = synclib.SharedBase + memtypes.Addr(r.Intn(3*memtypes.PageBytes))
	case 1:
		a = synclib.PrivateBase + memtypes.Addr(r.Intn(8))*0x1_0000 + memtypes.Addr(r.Intn(memtypes.PageBytes))
	case 2:
		page := memtypes.Addr(r.Intn(4)) * memtypes.PageBytes
		a = synclib.SharedBase + page + memtypes.Addr(r.Intn(4*memtypes.WordBytes)) - 2*memtypes.WordBytes
	case 3:
		line := memtypes.Addr(r.Intn(256)) * memtypes.LineBytes
		a = synclib.SharedBase + line + memtypes.Addr(r.Intn(2*memtypes.WordBytes)) - memtypes.WordBytes
	default:
		a = far[r.Intn(len(far))] + memtypes.Addr(r.Intn(memtypes.PageBytes))
	}
	return a
}

// storeValue draws a word, zero a third of the time.
func storeValue(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return 0
	}
	return r.Uint64() >> uint(r.Intn(64))
}

// The paged store reads, and digests, exactly as a word map would, over
// random word and masked line stores (zeros among them) and loads of
// words and lines, in both synclib regions, at page and line boundaries
// and at arbitrary addresses, up to the top of the address space.
func TestStoreMatchesWordMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		far := []memtypes.Addr{0, ^memtypes.Addr(0) - memtypes.PageBytes + 1}
		for len(far) < 16 {
			far = append(far, memtypes.Addr(r.Uint64()))
		}
		s := NewStore()
		ref := map[memtypes.Addr]uint64{}
		set := func(a memtypes.Addr, v uint64) {
			if v == 0 {
				delete(ref, a.Word())
			} else {
				ref[a.Word()] = v
			}
		}
		for step := 0; step < 1500; step++ {
			a := storeAddr(r, far)
			switch r.Intn(4) {
			case 0:
				v := storeValue(r)
				s.StoreWord(a, v)
				set(a, v)
			case 1:
				var l memtypes.Line
				var mask [memtypes.WordsPerLine]bool
				for i := range l {
					l[i] = storeValue(r)
					mask[i] = r.Intn(2) == 0
				}
				s.StoreLineWords(a, l, mask)
				for i, on := range mask {
					if on {
						set(a.Line()+memtypes.Addr(i*memtypes.WordBytes), l[i])
					}
				}
			case 2:
				if got, want := s.Load(a), ref[a.Word()]; got != want {
					t.Fatalf("seed %d step %d: Load(%v) = %d, want %d", seed, step, a, got, want)
				}
			case 3:
				got := s.LoadLine(a)
				for i, v := range got {
					if want := ref[a.Line()+memtypes.Addr(i*memtypes.WordBytes)]; v != want {
						t.Fatalf("seed %d step %d: LoadLine(%v)[%d] = %d, want %d", seed, step, a, i, v, want)
					}
				}
			}
			if got := s.Load(a); got != ref[a.Word()] {
				t.Fatalf("seed %d step %d: Load(%v) = %d after the step, want %d", seed, step, a, got, ref[a.Word()])
			}
			h := digest.New()
			s.Digest(h)
			if got, want := h.Sum(), refDigest(ref); got != want {
				t.Fatalf("seed %d step %d: Digest %#x, word map's %#x", seed, step, got, want)
			}
		}
	}
}

// Loading never allocates a page, and a page of zeros digests like no
// page at all.
func TestStoreZerosDigestAsEmpty(t *testing.T) {
	s := NewStore()
	empty := digest.New()
	s.Digest(empty)
	s.Load(synclib.SharedBase)
	s.LoadLine(synclib.PrivateBase)
	s.StoreWord(synclib.SharedBase+memtypes.PageBytes, 0)
	if len(s.pages) != 0 {
		t.Fatalf("loads and zero stores allocated %d pages", len(s.pages))
	}
	s.StoreWord(synclib.SharedBase, 5)
	s.StoreWord(synclib.SharedBase, 0)
	h := digest.New()
	s.Digest(h)
	if h.Sum() != empty.Sum() {
		t.Fatal("a page of zeros digests unlike an empty store")
	}
}
