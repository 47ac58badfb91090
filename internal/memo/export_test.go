package memo

// EntryText returns the stored text of the entry under the plan's
// i-th key ("" for a span the pipeline left unchanged).
func EntryText(m *Memo, p *Plan, i int) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries.Get(p.keys[i])
	return e.text, ok
}

// SetEntryText overwrites the text of the entry under the plan's i-th
// key, keeping its per-node records: the corruption a bad entry is.
func SetEntryText(m *Memo, p *Plan, i int, text string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, _ := m.entries.Get(p.keys[i])
	e.text = text
	m.entries.Add(p.keys[i], e)
}

// Keys returns the plan's entry keys.
func Keys(p *Plan) []string { return p.keys }

// TextBytes sums the text held by the entries under the distinct keys.
func TextBytes(m *Memo, keys []string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool, len(keys))
	total := 0
	for _, k := range keys {
		if e, ok := m.entries.Get(k); ok && !seen[k] {
			seen[k] = true
			total += len(e.text)
		}
	}
	return total
}
