package lint

// ByKey resolves a canonical key, or nil.
func (t *FactTable) ByKey(key string) *FuncFact {
	if t == nil {
		return nil
	}
	return t.funcs[key]
}
