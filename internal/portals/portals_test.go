package portals

import "testing"

func TestMatchBitsSemantics(t *testing.T) {
	me := &ME{Match: 0xAB, Ignore: 0x0F}
	for _, c := range []struct {
		bits MatchBits
		want bool
	}{
		{0xAB, true},
		{0xA0, true}, // low nibble ignored
		{0xAF, true},
		{0xBB, false}, // high nibble differs
		{0x1AB, false},
	} {
		if got := me.matches(c.bits); got != c.want {
			t.Errorf("match(%#x) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestPriorityBeforeOverflow(t *testing.T) {
	ni := NewNI(4)
	pt, err := ni.PT(0)
	if err != nil {
		t.Fatal(err)
	}
	over := &ME{Match: 7}
	prio := &ME{Match: 7}
	if err := pt.Append(OverflowList, over); err != nil {
		t.Fatal(err)
	}
	if err := pt.Append(PriorityList, prio); err != nil {
		t.Fatal(err)
	}
	got, list, ok := pt.Match(7)
	if !ok || got != prio || list != PriorityList {
		t.Fatalf("matched %v on %v list", got, list)
	}
}

func TestOverflowFallback(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	over := &ME{Match: 9}
	if err := pt.Append(OverflowList, over); err != nil {
		t.Fatal(err)
	}
	got, list, ok := pt.Match(9)
	if !ok || got != over || list != OverflowList {
		t.Fatalf("matched %v on %v list", got, list)
	}
}

func TestNoMatchDiscards(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	if err := pt.Append(PriorityList, &ME{Match: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pt.Match(2); ok {
		t.Fatal("unexpected match")
	}
}

func TestMatchOrderIsAppendOrder(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	first := &ME{Match: 5}
	second := &ME{Match: 5}
	if err := pt.Append(PriorityList, first); err != nil {
		t.Fatal(err)
	}
	if err := pt.Append(PriorityList, second); err != nil {
		t.Fatal(err)
	}
	got, _, _ := pt.Match(5)
	if got != first {
		t.Fatal("matching must search in append order")
	}
}

func TestUseOnceUnlinks(t *testing.T) {
	for _, list := range []List{PriorityList, OverflowList} {
		ni := NewNI(1)
		pt, _ := ni.PT(0)
		me := &ME{Match: 3, UseOnce: true}
		if err := pt.Append(list, me); err != nil {
			t.Fatal(err)
		}
		got, from, ok := pt.Match(3)
		if !ok || got != me || from != list {
			t.Fatalf("%v: first match failed", list)
		}
		if me.Linked() {
			t.Fatalf("%v: use-once entry still linked after match", list)
		}
		if _, _, ok := pt.Match(3); ok {
			t.Fatalf("%v: use-once entry matched twice", list)
		}
	}
}

func TestPersistentEntryMatchesRepeatedly(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	me := &ME{Match: 3}
	if err := pt.Append(PriorityList, me); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := pt.Match(3); !ok {
			t.Fatalf("match %d failed", i)
		}
	}
	if !me.Linked() {
		t.Fatal("persistent entry unlinked")
	}
}

func TestUnlinkRemoves(t *testing.T) {
	for _, list := range []List{PriorityList, OverflowList} {
		ni := NewNI(1)
		pt, _ := ni.PT(0)
		a := &ME{Match: 1}
		b := &ME{Match: 1}
		if err := pt.Append(list, a); err != nil {
			t.Fatal(err)
		}
		if err := pt.Append(list, b); err != nil {
			t.Fatal(err)
		}
		pt.Unlink(a)
		if a.Linked() {
			t.Fatalf("%v: a still linked", list)
		}
		got, _, _ := pt.Match(1)
		if got != b {
			t.Fatalf("%v: unlinked entry still matches", list)
		}
		pt.Unlink(a) // no-op
	}
}

func TestDoubleAppendRejected(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	me := &ME{Match: 1}
	if err := pt.Append(PriorityList, me); err != nil {
		t.Fatal(err)
	}
	if err := pt.Append(OverflowList, me); err == nil {
		t.Fatal("double append accepted")
	}
	if err := pt.Append(PriorityList, nil); err == nil {
		t.Fatal("nil ME accepted")
	}
}

func TestEventsAndCounter(t *testing.T) {
	ni := NewNI(1)
	pt, _ := ni.PT(0)
	pt.PostEvent(Event{Kind: EventPut, Match: 1, Size: 64})
	pt.PostEvent(Event{Kind: EventHandlerCompletion, Match: 1})
	if pt.Counter() != 2 {
		t.Fatalf("counter = %d", pt.Counter())
	}
	evs := pt.DrainEvents()
	if len(evs) != 2 || evs[0].Kind != EventPut || evs[1].Kind != EventHandlerCompletion {
		t.Fatalf("events = %v", evs)
	}
	if len(pt.Events()) != 0 {
		t.Fatal("events not drained")
	}
	if evs[0].Kind.String() != "PUT" || EventDropped.String() != "DROPPED" {
		t.Fatal("event kind names")
	}
}

func TestPTRange(t *testing.T) {
	ni := NewNI(2)
	if ni.NumPTs() != 2 {
		t.Fatalf("NumPTs = %d", ni.NumPTs())
	}
	if _, err := ni.PT(2); err == nil {
		t.Fatal("out-of-range PT accepted")
	}
	if _, err := ni.PT(-1); err == nil {
		t.Fatal("negative PT accepted")
	}
}
