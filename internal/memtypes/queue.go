package memtypes

import (
	"sort"

	"repro/internal/digest"
)

// LineQueues holds FIFO queues of messages waiting for a busy cache line,
// one queue per line: the deferral queue of a directory or LLC bank that
// serializes transactions per line. A drained queue keeps its backing
// array for the next line that needs one, so steady-state queueing
// performs no heap allocation. The zero value is ready to use.
type LineQueues struct {
	q map[Addr][]*Message
	//cbvet:ephemeral recycled empty backing arrays; they hold no messages
	spare [][]*Message
}

// Push appends msg to line's queue.
//
//cbsim:hotpath
func (lq *LineQueues) Push(line Addr, msg *Message) {
	if lq.q == nil {
		//cbvet:alloc-ok one-time lazy initialization
		lq.q = make(map[Addr][]*Message)
	}
	q, ok := lq.q[line]
	if n := len(lq.spare); !ok && n > 0 {
		q = lq.spare[n-1]
		lq.spare[n-1] = nil
		lq.spare = lq.spare[:n-1]
	}
	lq.q[line] = append(q, msg)
}

// Pop removes and returns the oldest message queued on line, or nil when
// the queue is empty.
//
//cbsim:hotpath
func (lq *LineQueues) Pop(line Addr) *Message {
	q := lq.q[line]
	if len(q) == 0 {
		return nil
	}
	msg := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	q = q[:n]
	if n == 0 {
		delete(lq.q, line)
		lq.spare = append(lq.spare, q)
	} else {
		lq.q[line] = q
	}
	return msg
}

// Digest folds every queue in ascending line order: its line, its length
// and its messages in queue order.
func (lq *LineQueues) Digest(h *digest.Hash) {
	lines := make([]Addr, 0, len(lq.q))
	for a := range lq.q { //cbvet:unordered — keys are sorted before hashing
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	h.Int(len(lines))
	for _, a := range lines {
		h.U64(uint64(a))
		h.Int(len(lq.q[a]))
		for _, m := range lq.q[a] {
			m.Digest(h)
		}
	}
}
