package store

import (
	"errors"
	"testing"
)

func TestPinnedSessionSurvivesBudgetEviction(t *testing.T) {
	m := NewMemory(WithMaxSessions(2))
	a, b, c := trainSession(t, "sess-1", 1), trainSession(t, "sess-2", 2), trainSession(t, "sess-3", 3)
	m.Put(a)
	m.Put(b)
	m.Get("sess-1") // sess-2 would be the LRU victim...
	b.Pin()
	defer b.Unpin()
	m.Put(c) // ...but it is pinned, so sess-1 is evicted instead

	if _, ok := m.Get("sess-2"); !ok {
		t.Fatal("pinned session must survive budget eviction")
	}
	if _, ok := m.Get("sess-1"); ok {
		t.Fatal("unpinned LRU session should have been evicted instead")
	}

	// With everything pinned, enforcement rejects the registration with a
	// typed *PressureError (transient backpressure) rather than dropping
	// state under an active reader or growing the tier without bound.
	b2, _ := m.Get("sess-2")
	c2, _ := m.Get("sess-3")
	b2.Pin()
	c2.Pin()
	defer b2.Unpin()
	d := trainSession(t, "sess-4", 4)
	err := m.Put(d)
	var pe *PressureError
	if !errors.As(err, &pe) {
		t.Fatalf("Put with a fully pinned budget = %v, want *PressureError", err)
	}
	if pe.Dimension != "sessions" || pe.Pinned != 2 {
		t.Fatalf("PressureError = %+v, want sessions dimension with 2 pinned", pe)
	}
	for _, id := range []string{"sess-2", "sess-3"} {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("session %s dropped while pinned", id)
		}
	}
	if _, ok := m.Get("sess-4"); ok {
		t.Fatal("rejected registration must not be admitted")
	}
	if got := m.Stats().Resident; got != 2 {
		t.Fatalf("resident = %d, want 2 (rejected Put fully undone)", got)
	}
	if got := m.TenantUsage("").Sessions(); got != 2 {
		// The undo must leave the ownership accounting balanced: the two
		// surviving pinned sessions, nothing from the rejected one.
		t.Fatalf("anonymous ownership = %d after undo, want 2", got)
	}

	// Once a pin releases, the same registration is admitted (the pressure
	// was transient).
	c2.Unpin()
	if err := m.Put(trainSession(t, "sess-4", 4)); err != nil {
		t.Fatalf("Put after unpin = %v, want success", err)
	}

	// An explicit Delete ignores pins: the client's instruction to forget
	// the session wins over an in-flight read.
	if !m.Delete("sess-2") {
		t.Fatal("explicit delete of a pinned session must succeed")
	}
	if _, ok := m.Get("sess-2"); ok {
		t.Fatal("deleted session should be gone despite the pin")
	}
}
