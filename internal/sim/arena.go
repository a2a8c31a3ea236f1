package sim

import "unsafe"

// cacheLine is the alignment unit of the hot-state arena: every
// router's block starts on one, so no line is shared between two
// routers — and therefore never written by two shards.
const cacheLine = 64

// blockArena is the one pointer-free allocation behind the engine's
// hot state (DESIGN.md §15): every router owns a contiguous,
// cacheLine-aligned block of it holding all of its per-port and
// per-(port,VC) arrays and the state of its attached nodes. The four
// typed views alias the same memory; Router's slices are sub-slices of
// them, and deferred credit returns and buffer releases address
// counters by their index in w32, so applying one is a single add on a
// flat array with no router to chase.
type blockArena struct {
	buf []uint64 // owns the memory; never accessed directly
	q   []queue
	i64 []int64
	w32 []int32
	h16 []int16
}

// newBlockArena allocates size bytes (a multiple of cacheLine) starting
// on a cache-line boundary. The collector never moves heap objects, so
// the alignment found here holds for the arena's lifetime.
func newBlockArena(size int) blockArena {
	buf := make([]uint64, size/8+cacheLine/8)
	p := unsafe.Pointer(&buf[0])
	base := unsafe.Add(p, -uintptr(p)&(cacheLine-1))
	return blockArena{
		buf: buf,
		q:   unsafe.Slice((*queue)(base), size/int(unsafe.Sizeof(queue{}))),
		i64: unsafe.Slice((*int64)(base), size/8),
		w32: unsafe.Slice((*int32)(base), size/4),
		h16: unsafe.Slice((*int16)(base), size/2),
	}
}

// layout is a byte cursor over a blockArena. The same carving code runs
// twice — first against a zero arena to measure, then against the
// allocated one — so the sizes can never disagree with the slices.
type layout struct{ off int }

func (l *layout) alignLine() { l.off = (l.off + cacheLine - 1) &^ (cacheLine - 1) }

// carve takes the next n elements of a view, aligned to the element
// size (a power of two), and returns them with the index of the first
// in that view. A nil view (the measuring pass) only advances the
// cursor.
func carve[T any](l *layout, view []T, n int) ([]T, int) {
	var z T
	size := int(unsafe.Sizeof(z))
	l.off = (l.off + size - 1) &^ (size - 1)
	i := l.off / size
	l.off += size * n
	if view == nil {
		return nil, i
	}
	return view[i : i+n : i+n], i
}
