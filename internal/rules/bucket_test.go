package rules

import (
	"fmt"
	"testing"
)

// indexedItems returns a session indexing *item by name (unique keys) and
// by done (two constant keys), with both indexes.
func indexedItems(t *testing.T) (*typedIndex[string], *typedIndex[bool]) {
	t.Helper()
	s := NewSession()
	if err := AddIndexOf(s, "name", func(it *item) string { return it.name }); err != nil {
		t.Fatal(err)
	}
	if err := AddIndexOf(s, "done", func(it *item) bool { return it.done }); err != nil {
		t.Fatal(err)
	}
	return indexOf[*item, string](s, "name"), indexOf[*item, bool](s, "done")
}

func record(it *item) *factRecord {
	return &factRecord{value: it, live: true, buckets: make([]bucketRef, 2)}
}

// TestIndexReusesReleasedBuckets is the allocation ceiling of index
// maintenance: once warm, a fact entering and leaving under a key nobody
// else holds, and a constant-key bucket that empties and refills, take
// their buckets from the free list and allocate nothing.
func TestIndexReusesReleasedBuckets(t *testing.T) {
	byName, byDone := indexedItems(t)

	const runs = 200
	recs := make([]*factRecord, runs+1)
	for i := range recs {
		recs[i] = record(&item{name: fmt.Sprintf("f-%04d", i)})
	}
	byName.insert(recs[runs]) // warm-up: one bucket on the free list
	byName.retract(recs[runs])
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		byName.insert(recs[i])
		byName.retract(recs[i])
		i++
	}); n != 0 {
		t.Fatalf("insert+retract of a fresh unique key allocates %v times, want 0", n)
	}

	a, b := record(&item{name: "a"}), record(&item{name: "b"})
	cycle := func() {
		byDone.insert(a)
		byDone.insert(b) // a second member: the bucket holds a recList
		byDone.retract(a)
		byDone.retract(b) // emptied and released
	}
	cycle()
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Fatalf("emptying and refilling a constant-key bucket allocates %v times, want 0", n)
	}
	if len(byDone.free) == 0 || len(byName.free) == 0 {
		t.Fatal("released buckets did not reach the free lists")
	}
	if a.buckets[byDone.slot] != nil {
		t.Fatal("a retracted fact still points at its released bucket")
	}

	// A large batch releasing many buckets at once leaves at most
	// freeBuckets behind.
	for _, r := range recs {
		byName.insert(r)
	}
	for _, r := range recs {
		byName.retract(r)
	}
	if len(byName.free) != freeBuckets || len(byName.buckets) != 0 {
		t.Fatalf("after releasing %d buckets: %d free, %d in the map; want %d and 0",
			len(recs), len(byName.free), len(byName.buckets), freeBuckets)
	}
}

// TestReusedBucketKeepsInsertionOrder: a bucket taken from the free list
// lists its new members in insertion order, however its previous key left
// it.
func TestReusedBucketKeepsInsertionOrder(t *testing.T) {
	_, byDone := indexedItems(t)
	old := []*factRecord{record(&item{name: "x"}), record(&item{name: "y"}), record(&item{name: "z"})}
	for _, r := range old {
		byDone.insert(r)
	}
	for _, i := range []int{1, 2, 0} {
		byDone.retract(old[i])
	}
	fresh := []*factRecord{record(&item{name: "p"}), record(&item{name: "q"}), record(&item{name: "r"})}
	for _, r := range fresh {
		byDone.insert(r)
	}
	var got []string
	for _, r := range byDone.buckets[false].members() {
		if r != nil {
			got = append(got, r.value.(*item).name)
		}
	}
	if fmt.Sprint(got) != "[p q r]" {
		t.Fatalf("reused bucket lists %v, want [p q r]", got)
	}
}

// TestSessionRetractClearsBucketPointers: a retracted fact, which tuples
// and activations may still hold, keeps no pointer into a bucket that
// has since gone to the free list and may hold another key's facts.
func TestSessionRetractClearsBucketPointers(t *testing.T) {
	s := NewSession()
	if err := AddIndexOf(s, "name", func(it *item) string { return it.name }); err != nil {
		t.Fatal(err)
	}
	it := &item{name: "gone"}
	s.Insert(it)
	rec := s.identity[it]
	s.Retract(it)
	for i, b := range rec.buckets {
		if b != nil {
			t.Fatalf("retracted fact still points at its index-%d bucket", i)
		}
	}
	if v, ok := FirstByKey[*item](s, "name", "gone"); ok {
		t.Fatalf("FirstByKey found retracted %+v", v)
	}
	s.Insert(&item{name: "gone", qty: 2})
	if v, ok := FirstByKey[*item](s, "name", "gone"); !ok || v.qty != 2 {
		t.Fatalf("FirstByKey = %+v, %v after re-insert, want the new fact", v, ok)
	}
}
