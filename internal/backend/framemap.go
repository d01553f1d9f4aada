package backend

import (
	"repro/internal/arch"
)

// frameMap maps guest-physical frames to the machine frames backing them
// (host-physical on bare metal, L1-guest-physical when nested). The guest
// allocator hands out frame numbers densely from its base, so the map is a
// slice indexed by gpa-base, grown on demand, with 0 marking an unbacked
// frame: no machine allocator starts at frame 0. Only the engine's single
// scheduler goroutine runs vCPUs, and every experiment cell builds its own
// System, so the map needs no lock. Which frame backs a given gpa depends
// only on the (virtually serialized) order of allocator calls.
type frameMap struct {
	base   arch.PFN
	target []arch.PFN // target[gpa-base], 0 = unbacked
	n      int        // backed frames
}

// newFrameMap returns an empty map over the guest frames numbered from
// base.
func newFrameMap(base arch.PFN) *frameMap { return &frameMap{base: base} }

// get returns the frame backing gpa without allocating.
func (f *frameMap) get(gpa arch.PFN) (arch.PFN, bool) {
	i := int(gpa - f.base)
	if gpa < f.base || i >= len(f.target) || f.target[i] == 0 {
		return 0, false
	}
	return f.target[i], true
}

// getOrAlloc returns the frame backing gpa, calling alloc to establish one
// on first use. It reports whether the frame was freshly allocated.
func (f *frameMap) getOrAlloc(gpa arch.PFN, alloc func() arch.PFN) (target arch.PFN, alloced bool) {
	if t, ok := f.get(gpa); ok {
		return t, false
	}
	if gpa < f.base {
		panic("backend: backing requested for a frame below the guest's frame range")
	}
	i := int(gpa - f.base)
	if i >= len(f.target) {
		f.target = append(f.target, make([]arch.PFN, i+1-len(f.target))...)
	}
	t := alloc()
	f.target[i] = t
	f.n++
	return t, true
}

// remove drops gpa's backing mapping, returning the frame that backed it.
func (f *frameMap) remove(gpa arch.PFN) (arch.PFN, bool) {
	t, ok := f.get(gpa)
	if ok {
		f.target[gpa-f.base] = 0
		f.n--
	}
	return t, ok
}

// len returns the number of backed frames.
func (f *frameMap) len() int { return f.n }
