package mmucache

// Flush empties the cache; recency order is kept.
func (l *LLC) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.sets {
		l.sets[i].valid = 0
	}
	l.resident = 0
}
