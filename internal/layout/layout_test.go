package layout

import (
	"math/rand"
	"testing"
)

func TestVanilla(t *testing.T) {
	l := Vanilla(10, 4)
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", l.NumPages())
	}
	if l.Home[0] != 0 || l.Home[4] != 1 || l.Home[9] != 2 {
		t.Errorf("Home = %v", l.Home)
	}
	if l.ReplicationRatio() != 0 {
		t.Errorf("ReplicationRatio = %v, want 0", l.ReplicationRatio())
	}
	if rc := l.ReplicaCount(0); rc != 1 {
		t.Errorf("ReplicaCount = %d, want 1", rc)
	}
	pages := l.PagesOf(5, nil)
	if len(pages) != 1 || pages[0] != 1 {
		t.Errorf("PagesOf(5) = %v, want [1]", pages)
	}
}

func TestVanillaExactFit(t *testing.T) {
	l := Vanilla(8, 4)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", l.NumPages())
	}
}

func TestFromAssignment(t *testing.T) {
	assign := []int32{2, 0, 2, 0, 5}
	l, err := FromAssignment(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Buckets 0,2,5 → pages 0,1,2.
	if l.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", l.NumPages())
	}
	if l.Home[1] != 0 || l.Home[3] != 0 {
		t.Errorf("bucket 0 keys misplaced: Home = %v", l.Home)
	}
	if l.Home[0] != 1 || l.Home[2] != 1 {
		t.Errorf("bucket 2 keys misplaced: Home = %v", l.Home)
	}
	if l.Home[4] != 2 {
		t.Errorf("bucket 5 key misplaced: Home = %v", l.Home)
	}
}

func TestFromAssignmentOverCapacity(t *testing.T) {
	if _, err := FromAssignment([]int32{0, 0, 0}, 2); err == nil {
		t.Error("FromAssignment accepted over-capacity bucket")
	}
}

func TestAddReplicaPage(t *testing.T) {
	l := Vanilla(10, 4)
	p, err := l.AddReplicaPage([]Key{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Errorf("replica page id = %d, want 3", p)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate after replica: %v", err)
	}
	if rc := l.ReplicaCount(5); rc != 2 {
		t.Errorf("ReplicaCount(5) = %d, want 2", rc)
	}
	pages := l.PagesOf(5, nil)
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 3 {
		t.Errorf("PagesOf(5) = %v, want [1 3] (home first)", pages)
	}
	if got, want := l.ReplicationRatio(), 0.3; got != want {
		t.Errorf("ReplicationRatio = %v, want %v", got, want)
	}
}

func TestAddReplicaPageRejections(t *testing.T) {
	l := Vanilla(10, 2)
	if _, err := l.AddReplicaPage([]Key{0, 1, 2}); err == nil {
		t.Error("accepted over-capacity replica page")
	}
	if _, err := l.AddReplicaPage([]Key{0, 0}); err == nil {
		t.Error("accepted duplicate key on replica page")
	}
	if _, err := l.AddReplicaPage([]Key{99}); err == nil {
		t.Error("accepted out-of-range key")
	}
	// Failed adds must leave the layout valid.
	if err := l.Validate(); err != nil {
		t.Errorf("layout invalid after rejected adds: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	corrupt := []func(*Layout){
		func(l *Layout) { l.Home[0] = 99 },                          // out of range home
		func(l *Layout) { l.Home[0] = 1 },                           // home page doesn't list key
		func(l *Layout) { l.Pages[0] = append(l.Pages[0], 7) },      // page lists key without mapping
		func(l *Layout) { l.Pages[0] = []Key{0, 0} },                // duplicate on page
		func(l *Layout) { l.Pages[0] = []Key{0, 1, 2, 3, 4, 5, 6} }, // over capacity
		func(l *Layout) { l.Capacity = 0 },
		func(l *Layout) { l.Home = l.Home[:3] },
		func(l *Layout) { l.Pages[0] = []Key{0, 1, 0} },                      // duplicate on page, apart
		func(l *Layout) { l.Replicas[0] = []PageID{2, 2} },                   // replica page listed twice
		func(l *Layout) { l.Replicas[0] = []PageID{0} },                      // home page listed as a replica
		func(l *Layout) { l.Replicas[0] = []PageID{9} },                      // out of range replica page
		func(l *Layout) { l.Replicas[4] = append(l.Replicas[4], PageID(2)) }, // replica page doesn't list key
		func(l *Layout) { l.Replicas = l.Replicas[:3] },
	}
	for i, f := range corrupt {
		l := Vanilla(8, 4)
		if _, err := l.AddReplicaPage([]Key{0, 1}); err != nil { // page 2
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("Validate before corruption: %v", err)
		}
		f(l)
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted corrupt layout", i)
		}
	}
}

func TestComputeStats(t *testing.T) {
	l := Vanilla(10, 4)
	if _, err := l.AddReplicaPage([]Key{0, 1}); err != nil {
		t.Fatal(err)
	}
	s := l.ComputeStats()
	if s.NumKeys != 10 || s.NumPages != 4 || s.Capacity != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReplicaSlots != 2 {
		t.Errorf("ReplicaSlots = %d, want 2", s.ReplicaSlots)
	}
	if s.MaxReplicaCount != 2 {
		t.Errorf("MaxReplicaCount = %d, want 2", s.MaxReplicaCount)
	}
	if s.MeanKeysPerPage != 3 {
		t.Errorf("MeanKeysPerPage = %v, want 3", s.MeanKeysPerPage)
	}
}

// Property: random assignments plus random replica pages always validate,
// and PagesOf/ReplicaCount stay mutually consistent.
func TestLayoutRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		capacity := 1 + rng.Intn(8)
		assign := make([]int32, n)
		// Fill buckets sequentially to respect capacity.
		for k := range assign {
			assign[k] = int32(k / capacity)
		}
		rng.Shuffle(n, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
		l, err := FromAssignment(assign, capacity)
		if err != nil {
			t.Fatalf("FromAssignment: %v", err)
		}
		// Add random replica pages.
		for r := 0; r < rng.Intn(5); r++ {
			m := 1 + rng.Intn(capacity)
			if m > n {
				m = n
			}
			perm := rng.Perm(n)
			keys := make([]Key, 0, m)
			for _, k := range perm[:m] {
				keys = append(keys, Key(k))
			}
			if _, err := l.AddReplicaPage(keys); err != nil {
				t.Fatalf("AddReplicaPage: %v", err)
			}
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var buf []PageID
		for k := 0; k < n; k++ {
			buf = l.PagesOf(Key(k), buf[:0])
			if len(buf) != l.ReplicaCount(Key(k)) {
				t.Fatalf("PagesOf/ReplicaCount mismatch for key %d", k)
			}
			if buf[0] != l.Home[k] {
				t.Fatalf("PagesOf(%d) does not start with home", k)
			}
		}
	}
}
