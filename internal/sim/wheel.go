package sim

import "math/bits"

// wheelSlots is the timing wheel's window: one slot per cycle for the 64
// cycles from now, so the occupancy of every slot fits one word. Most
// re-keys land within it; the rest park at never or go to the far set.
const wheelSlots = 64

const wheelMask = wheelSlots - 1

// wakeWheel holds every ticker's cached wake cycle in a timing wheel of
// ticker-id bitmaps (Varghese & Lauck, SOSP 1987: one slot per cycle of a
// bounded window) with one overflow set beyond it. at keeps each id's
// exact cached wake; the id itself sits in exactly one place, decided by
// that key and the kernel's clock now:
//
//   - due (key <= now): in soon, or in slot now mod 64 when it entered
//     the window as a future key and the clock has reached it;
//   - now < key < now+64: in slot key mod 64, so each slot holds exactly
//     one key value and the occupancy word orders the window;
//   - key >= now+64 (and not never): in far, whose minimum farMin is a
//     lower bound, tightened when far entries migrate into the window;
//   - never: nowhere, until a rearm revives it.
//
// The clock only advances to cycles at or before the smallest future key
// (Step's walk re-keys every due id beyond now first), so the window
// invariant holds without rotating anything: every slot key lies in
// [now, now+64). The stepped modes never re-key and break it; reseat
// restores it from at.
type wakeWheel struct {
	at []Cycle
	// words is the bitmap width in 64-bit words; soon and far hold one
	// bitmap each, slots one per slot, slot s at [s*words, (s+1)*words).
	words int
	soon  []uint64
	far   []uint64
	slots []uint64
	// cnt counts the ids in each slot and occ has bit s set iff cnt[s] > 0.
	cnt    [wheelSlots]int32
	occ    uint64
	farMin Cycle
}

// add registers id with an immediately-due wake (cycle 0), so the first
// executed cycle ticks every ticker once and keys it from a live hint.
func (w *wakeWheel) add(id int, now Cycle) {
	w.at = append(w.at, 0)
	if id>>6 == w.words {
		w.words++
		w.soon = append(w.soon, 0)
		w.far = append(w.far, 0)
		w.slots = make([]uint64, wheelSlots*w.words)
		w.reseat(now)
		return
	}
	w.link(id, 0, now)
}

// reseat rebuilds every bitmap from at, placing each id by its key at
// now. It restores the window invariant after the stepped modes, which
// advance the clock without re-keying anything.
func (w *wakeWheel) reseat(now Cycle) {
	clear(w.soon)
	clear(w.far)
	clear(w.slots)
	w.cnt = [wheelSlots]int32{}
	w.occ = 0
	w.farMin = never
	for id, at := range w.at {
		w.link(id, at, now)
	}
}

// link sets id's key to at and files the id by it. The id must not be
// filed anywhere.
//
//sara:hotpath
func (w *wakeWheel) link(id int, at, now Cycle) {
	w.at[id] = at
	wd, bit := id>>6, uint64(1)<<(id&63)
	switch {
	case at <= now:
		w.soon[wd] |= bit
	case at < now+wheelSlots:
		s := int(at & wheelMask)
		w.slots[s*w.words+wd] |= bit
		w.cnt[s]++
		w.occ |= 1 << s
	case at == never:
	default:
		w.far[wd] |= bit
		if at < w.farMin {
			w.farMin = at
		}
	}
}

// rearm lowers id's key to at (decrease-key); at values at or above the
// cached key are dropped. A due id stays where it is — soon and the
// current slot are both due — so only a future key moves.
//
//sara:hotpath
func (w *wakeWheel) rearm(id int, at, now Cycle) {
	old := w.at[id]
	if at >= old {
		return
	}
	if old <= now {
		w.at[id] = at
		return
	}
	w.unlink(id, now)
	w.link(id, at, now)
}

// set re-keys id to at, up or down: the fast-forward probe's validation
// of a due id.
//
//sara:hotpath
func (w *wakeWheel) set(id int, at, now Cycle) {
	w.unlink(id, now)
	w.link(id, at, now)
}

// unlink removes id from wherever its key files it.
//
//sara:hotpath
func (w *wakeWheel) unlink(id int, now Cycle) {
	old := w.at[id]
	wd, bit := id>>6, uint64(1)<<(id&63)
	switch {
	case old <= now && w.soon[wd]&bit != 0:
		w.soon[wd] &^= bit
	case old <= now:
		w.unslot(int(now&wheelMask), wd, bit)
	case old < now+wheelSlots:
		w.unslot(int(old&wheelMask), wd, bit)
	case old != never:
		w.far[wd] &^= bit
	}
}

// unslot removes the id at word wd, bit bit from slot s.
//
//sara:hotpath
func (w *wakeWheel) unslot(s, wd int, bit uint64) {
	w.slots[s*w.words+wd] &^= bit
	if w.cnt[s]--; w.cnt[s] == 0 {
		w.occ &^= 1 << s
	}
}

// advanced restores the window invariant after the clock moved forward
// to now: far keys that entered the window move into their slots.
//
//sara:hotpath
func (w *wakeWheel) advanced(now Cycle) {
	if w.farMin < now+wheelSlots {
		w.migrate(now)
	}
}

// migrate moves every far id whose key is below now+64 into the window
// and sets farMin to the exact minimum of the rest.
func (w *wakeWheel) migrate(now Cycle) {
	lo := never
	for wd, m := range w.far {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			id := wd<<6 | b
			if at := w.at[id]; at < now+wheelSlots {
				w.far[wd] &^= 1 << b
				w.link(id, at, now)
			} else if at < lo {
				lo = at
			}
		}
	}
	w.farMin = lo
}

// next reports the smallest key after now, or never. The window's is one
// rotated occupancy word away; with the window empty, farMin is tightened
// to the exact far minimum first.
//
//sara:hotpath
func (w *wakeWheel) next(now Cycle) Cycle {
	if r := bits.RotateLeft64(w.occ, -int(now&wheelMask)) &^ 1; r != 0 {
		return now + Cycle(bits.TrailingZeros64(r))
	}
	if w.farMin != never {
		w.migrate(now)
	}
	return w.farMin
}
