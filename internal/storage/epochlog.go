package storage

// epochLog keeps per-epoch undo state — one bucket of T per epoch still
// revertable, in the order the epochs first wrote — so a fence commit
// drops whole buckets (no record is latched at the phase switch) and a
// revert touches exactly its epoch's entries. The owner's mutex guards
// it. Writes target the newest epoch, so lookups scan newest-first and
// are effectively constant: the STAR engine keeps at most two epochs in
// flight (fences drop the rest), and the baseline engines drop committed
// buckets at their group-commit fence or batch hand-off.
type epochLog[T any] []epochBucket[T]

type epochBucket[T any] struct {
	epoch uint64
	v     T
}

// at returns epoch's bucket, opening it if the epoch has none yet.
func (l *epochLog[T]) at(epoch uint64) *T {
	for i := len(*l) - 1; i >= 0; i-- {
		if (*l)[i].epoch == epoch {
			return &(*l)[i].v
		}
	}
	*l = append(*l, epochBucket[T]{epoch: epoch})
	return &(*l)[len(*l)-1].v
}

// before removes and returns the buckets of the epochs before epoch —
// the fence commit.
func (l *epochLog[T]) before(epoch uint64) []epochBucket[T] {
	return l.cut(func(e uint64) bool { return e < epoch })
}

// take removes and returns epoch's bucket — the revert — or, for the
// wildcard epoch 0, every bucket.
func (l *epochLog[T]) take(epoch uint64) []epochBucket[T] {
	return l.cut(func(e uint64) bool { return epoch == 0 || e == epoch })
}

// cut moves the buckets whose epoch matches behind the ones it keeps,
// both in their order, shortens the log to the kept ones and returns the
// removed ones. They share the log's backing array: the caller is done
// with them before the log's next at.
func (l *epochLog[T]) cut(match func(epoch uint64) bool) []epochBucket[T] {
	s, kept := *l, 0
	for i := range s {
		if match(s[i].epoch) {
			continue
		}
		b := s[i]
		copy(s[kept+1:i+1], s[kept:i])
		s[kept] = b
		kept++
	}
	*l = s[:kept]
	return s[kept:]
}
