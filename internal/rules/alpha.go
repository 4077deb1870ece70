package rules

import (
	"fmt"
	"reflect"
)

// Alpha memories. Every fact type gets a recList (the type's alpha node:
// all live facts of the type in insertion order), and callers may register
// named indexes that bucket a type's facts by a join key so indexed
// patterns probe one bucket instead of scanning the whole type extent.
// Indexes are typed (map[K]) and bound to the patterns that probe them at
// AddRule, so neither a probe nor index maintenance boxes a key.

// recList is an insertion-ordered set of facts with O(1) add and remove.
// Removal tombstones the slot and the slice is compacted when more than
// half the slots are dead, so iteration stays O(live + dead) with dead
// bounded by live.
type recList struct {
	items []*factRecord // nil = tombstone
	pos   map[*factRecord]int
	dead  int
}

func newRecList() *recList {
	return &recList{pos: make(map[*factRecord]int)}
}

func (l *recList) add(rec *factRecord) {
	l.pos[rec] = len(l.items)
	l.items = append(l.items, rec)
}

func (l *recList) remove(rec *factRecord) {
	i, ok := l.pos[rec]
	if !ok {
		return
	}
	l.items[i] = nil
	delete(l.pos, rec)
	l.dead++
	if l.dead*2 > len(l.items) {
		l.compact()
	}
}

func (l *recList) compact() {
	live := l.items[:0]
	for _, rec := range l.items {
		if rec != nil {
			l.pos[rec] = len(live)
			live = append(live, rec)
		}
	}
	clear(l.items[len(live):])
	l.items = live
	l.dead = 0
}

// bucket is one key's slice of an index: its member facts in insertion
// order and the seeds subscribed to the key. Most keys are unique (a
// transfer ID, a destination URL), so a bucket holds its sole member inline
// and only grows a recList when a second fact arrives.
type bucket struct {
	one  [1]*factRecord // the sole member while list == nil; nil = none
	list *recList
	// subs are the seeds whose last join probed this key at a position
	// after the first: a fact entering, leaving or updated inside the
	// bucket dirties exactly these seeds.
	subs []subscriber
}

// subscriber is one entry of bucket.subs; slot is the position of the
// matching subscription in sd.subs, so either side unlinks in O(1).
type subscriber struct {
	sd   *seed
	slot int
}

// members returns the bucket's facts in insertion order; nil entries are
// tombstones.
func (b *bucket) members() []*factRecord {
	if b.list != nil {
		return b.list.items
	}
	if b.one[0] == nil {
		return nil
	}
	return b.one[:]
}

func (b *bucket) add(rec *factRecord) {
	switch {
	case b.list != nil:
		b.list.add(rec)
	case b.one[0] == nil:
		b.one[0] = rec
	default:
		b.list = newRecList()
		b.list.add(b.one[0])
		b.list.add(rec)
		b.one[0] = nil
	}
}

func (b *bucket) remove(rec *factRecord) {
	if b.list != nil {
		b.list.remove(rec)
	} else if b.one[0] == rec {
		b.one[0] = nil
	}
}

// live counts the bucket's members.
func (b *bucket) live() int {
	switch {
	case b.list != nil:
		return len(b.list.pos)
	case b.one[0] != nil:
		return 1
	}
	return 0
}

// unused reports whether the bucket has neither members nor subscribers.
func (b *bucket) unused() bool { return len(b.subs) == 0 && b.live() == 0 }

// notify dirties every subscribed seed.
func (b *bucket) notify() {
	for _, sub := range b.subs {
		sub.sd.markDirty()
	}
}

// bucketRef is a bucket as its non-generic holders (a fact record, a seed's
// subscription) see it.
type bucketRef interface {
	base() *bucket
	// release deletes the bucket from its index once it is unused, so
	// probes of absent keys stay a single map miss and unique keys do not
	// accumulate.
	release()
}

// keyBucket is a bucket together with its key and owning index.
type keyBucket[K comparable] struct {
	bucket
	key K
	ix  *typedIndex[K]
}

func (b *keyBucket[K]) base() *bucket { return &b.bucket }

func (b *keyBucket[K]) release() {
	if !b.unused() {
		return
	}
	ix := b.ix
	delete(ix.buckets, b.key)
	if len(ix.free) < freeBuckets {
		var zero K
		b.key = zero
		ix.free = append(ix.free, b)
	}
}

// indexID identifies a registered index: names are scoped per fact type.
type indexID struct {
	typ  reflect.Type
	name string
}

// alphaIndex is an index as working memory maintains it; the concrete type
// is always a *typedIndex[K].
type alphaIndex interface {
	insert(rec *factRecord)
	update(rec *factRecord)
	retract(rec *factRecord)
	reset()
}

// typedIndex buckets one fact type's facts by a caller-supplied key
// function. A fact remembers the bucket it sits in (factRecord.buckets, at
// the index's slot), which doubles as its old key on update and retract;
// retract clears it, so a released bucket has no holder left.
//
// Released buckets go to a free list, capped at freeBuckets, and the next
// new key takes one with its emptied recList: a unique key that comes and
// goes, or a state bucket that empties and refills, does not allocate. An
// emptied bucket holds no member, tombstone or subscriber, so a reused one
// lists its members in insertion order.
type typedIndex[K comparable] struct {
	slot    int
	key     func(v any) K
	buckets map[K]*keyBucket[K]
	free    []*keyBucket[K]
}

// freeBuckets caps each index's free list. An op releases a few buckets
// per index; a cap as long as the agenda's poolCap would keep a large
// batch's buckets, and the lists they grew, live for the session's
// lifetime.
const freeBuckets = 16

func (ix *typedIndex[K]) bucketFor(k K) *keyBucket[K] {
	b := ix.buckets[k]
	if b == nil {
		if n := len(ix.free); n > 0 {
			b = ix.free[n-1]
			ix.free[n-1] = nil
			ix.free = ix.free[:n-1]
			b.key = k
		} else {
			b = &keyBucket[K]{key: k, ix: ix}
		}
		ix.buckets[k] = b
	}
	return b
}

func (ix *typedIndex[K]) enter(rec *factRecord, k K) {
	b := ix.bucketFor(k)
	b.add(rec)
	rec.buckets[ix.slot] = b
	b.notify()
}

func (ix *typedIndex[K]) insert(rec *factRecord) { ix.enter(rec, ix.key(rec.value)) }

func (ix *typedIndex[K]) retract(rec *factRecord) {
	b := rec.buckets[ix.slot]
	rec.buckets[ix.slot] = nil
	b.base().remove(rec)
	b.base().notify()
	b.release()
}

// update re-buckets the fact if its key changed; either way the seeds that
// probed its old or new key are dirtied.
func (ix *typedIndex[K]) update(rec *factRecord) {
	k := ix.key(rec.value)
	if old := rec.buckets[ix.slot].(*keyBucket[K]); old.key == k {
		old.notify()
		return
	}
	ix.retract(rec)
	ix.enter(rec, k)
}

func (ix *typedIndex[K]) reset() { ix.buckets, ix.free = make(map[K]*keyBucket[K]), nil }

// probe returns the bucket for k. With a seed it also subscribes the seed
// to k, creating an empty bucket to hold the subscription when no fact has
// the key yet; without one it returns nil for an absent key. A seed mostly
// re-probes the keys of its last join, so its own few subscriptions are
// checked before the map: comparing a key is cheaper than hashing it.
func (ix *typedIndex[K]) probe(k K, sd *seed) *bucket {
	if sd == nil {
		if b := ix.buckets[k]; b != nil {
			return &b.bucket
		}
		return nil
	}
	for i := range sd.subs {
		if b, ok := sd.subs[i].b.(*keyBucket[K]); ok && b.ix == ix && b.key == k {
			sd.subs[i].seen = true
			return &b.bucket
		}
	}
	b := ix.bucketFor(k)
	sd.subs = append(sd.subs, subscription{b: b, pos: len(b.subs), seen: true})
	b.subs = append(b.subs, subscriber{sd: sd, slot: len(sd.subs) - 1})
	return &b.bucket
}

// AddIndexOf registers a named alpha index over facts of type T. The key
// function must depend only on the fact (facts mutated in place must be
// re-keyed via Update, exactly like guard re-evaluation). Indexes must be
// registered before rules that reference them are added; registering over
// a populated working memory back-fills the buckets.
func AddIndexOf[T any, K comparable](s *Session, name string, key func(v T) K) error {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		return fmt.Errorf("rules: AddIndexOf requires a concrete fact type")
	}
	if name == "" {
		return fmt.Errorf("rules: AddIndexOf with empty name")
	}
	if key == nil {
		return fmt.Errorf("rules: AddIndexOf %q with nil key function", name)
	}
	id := indexID{typ: t, name: name}
	if _, dup := s.indexes[id]; dup {
		return fmt.Errorf("rules: duplicate index %q on %v", name, t)
	}
	ix := &typedIndex[K]{
		slot:    len(s.typeIndexes[t]),
		key:     func(v any) K { return key(v.(T)) },
		buckets: make(map[K]*keyBucket[K]),
	}
	if l := s.byType[t]; l != nil {
		for _, rec := range l.items {
			if rec != nil {
				rec.buckets = append(rec.buckets, nil)
				ix.insert(rec)
			}
		}
	}
	s.indexes[id] = ix
	s.typeIndexes[t] = append(s.typeIndexes[t], ix)
	return nil
}

// indexOf resolves a registered index on T keyed by K, or nil.
func indexOf[T any, K comparable](s *Session, name string) *typedIndex[K] {
	var zero T
	ix, _ := s.indexes[indexID{typ: reflect.TypeOf(zero), name: name}].(*typedIndex[K])
	return ix
}

// bucketOf returns the named index's bucket for key over facts of type T,
// or nil when the index or the key is absent. It is a point query against
// the alpha memory, O(bucket) rather than O(type extent), so a rule action
// can use it where an extent scan would put O(facts) work inside one
// firing.
func bucketOf[T any, K comparable](m Memory, index string, key K) *bucket {
	if ix := indexOf[T, K](m.session(), index); ix != nil {
		if b := ix.buckets[key]; b != nil {
			return &b.bucket
		}
	}
	return nil
}

// FirstByKey returns the first fact of type T, in insertion order, in the
// named index's bucket for key: a point query that builds no slice. K must
// be the index's key type.
func FirstByKey[T any, K comparable](m Memory, index string, key K) (T, bool) {
	if b := bucketOf[T](m, index, key); b != nil {
		for _, rec := range b.members() {
			if rec != nil {
				return rec.value.(T), true
			}
		}
	}
	var zero T
	return zero, false
}

// CountByKey returns how many facts of type T the named index's bucket for
// key holds: a point query that builds no slice. K must be the index's key
// type.
func CountByKey[T any, K comparable](m Memory, index string, key K) int {
	if b := bucketOf[T](m, index, key); b != nil {
		return b.live()
	}
	return 0
}
