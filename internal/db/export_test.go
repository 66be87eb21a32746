package db

// Dense reports whether the set uses the word representation.
func (s *IDSet) Dense() bool { return s.words != nil }

// BlockRows returns the indexes of every row whose key prefix equals
// key (i.e. the rows of one block), in insertion order: one block-table
// probe and a walk of the block. The caller owns the result.
func (r *InternedRelation) BlockRows(key []int32) []int32 {
	_, tail := r.findBlock(key)
	if tail < 0 {
		return nil
	}
	return r.appendBlock(nil, tail)
}
