package temporal

import "math"

// Run locates one element's intervals in an Arena: an (offset, length)
// pair, eight bytes and no pointer. The zero Run is the empty element;
// the all-time element is a sentinel run that occupies no arena space.
type Run struct {
	off, n uint32
}

// alwaysRun is the all-time sentinel. A run of length zero indexes the
// shared all-time array instead of the arena: offset 0 is the empty
// element, offset 1 all time.
var alwaysRun = Run{off: 1}

// Len returns the number of arena intervals the run occupies: zero for
// the empty and the all-time element.
func (r Run) Len() int { return int(r.n) }

// Arena stores the intervals of many elements in one pointer-free array,
// so a structure holding thousands of annotations keeps one allocation
// for their chronon sets instead of one per element, and the garbage
// collector has nothing to trace inside it.
//
// An arena only appends: Put never rewrites a stored position, and Get
// hands out capacity-clamped windows. An element read from an arena is
// therefore as immutable as any other — later Puts, even ones that move
// the arena to a larger array, leave it as it was. The zero value is an
// empty arena. An arena is not safe for concurrent use, but elements
// taken from it may be read while it grows.
type Arena struct {
	ivs []Interval
}

// Put stores e and returns its run. The empty and the all-time element
// take no space.
func (a *Arena) Put(e Element) Run {
	switch {
	case e.IsEmpty():
		return Run{}
	case e.isAlways():
		return alwaysRun
	}
	if len(a.ivs)+len(e.ivs) > math.MaxUint32 {
		panic("temporal: arena exceeds 2^32 intervals")
	}
	r := Run{off: uint32(len(a.ivs)), n: uint32(len(e.ivs))}
	a.ivs = append(a.ivs, e.ivs...)
	return r
}

// Get returns the element stored under r. It allocates nothing.
func (a *Arena) Get(r Run) Element {
	if r.n == 0 {
		return Element{ivs: alwaysIvs[:r.off:r.off]}
	}
	return Element{ivs: a.ivs[r.off : r.off+r.n : r.off+r.n]}
}

// Len returns the number of intervals stored, live or not.
func (a *Arena) Len() int { return len(a.ivs) }

// Grow makes room for n more intervals without a further allocation.
func (a *Arena) Grow(n int) {
	if n > cap(a.ivs)-len(a.ivs) {
		ivs := make([]Interval, len(a.ivs), len(a.ivs)+n)
		copy(ivs, a.ivs)
		a.ivs = ivs
	}
}
