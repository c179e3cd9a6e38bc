package train

import "adapipe/internal/tensor"

// Corpus is a deterministic synthetic character stream standing in for the
// paper's Enwik8 dataset: a second-order Markov chain over a small alphabet
// with word- and sentence-like structure, so a language model has real
// statistical signal to learn (the loss curve of Figure 10 must actually
// descend).
type Corpus struct {
	// Vocab is the alphabet size.
	Vocab int
	data  []int
}

// NewCorpus synthesizes length tokens over the given vocabulary.
func NewCorpus(vocab, length int, seed uint64) *Corpus {
	rng := tensor.NewRNG(seed)
	c := &Corpus{Vocab: vocab, data: make([]int, length)}
	// Build a sparse bigram transition table: each (prev, cur) context
	// prefers a small set of successors, giving learnable structure.
	succ := make([][]int, vocab*vocab)
	for i := range succ {
		k := 2 + rng.Intn(3)
		succ[i] = make([]int, k)
		for j := range succ[i] {
			succ[i][j] = rng.Intn(vocab)
		}
	}
	prev, cur := 0, 1%vocab
	for i := range c.data {
		var next int
		if rng.Float64() < 0.9 {
			s := succ[prev*vocab+cur]
			next = s[rng.Intn(len(s))]
		} else {
			next = rng.Intn(vocab)
		}
		c.data[i] = next
		prev, cur = cur, next
	}
	return c
}

// Sample returns a (input, target) pair of length seq starting at a
// deterministic pseudo-random offset drawn from rng.
func (c *Corpus) Sample(seq int, rng *tensor.RNG) (tokens, targets []int) {
	if seq+1 > len(c.data) {
		panic("train: corpus shorter than sequence length")
	}
	off := rng.Intn(len(c.data) - seq - 1)
	tokens = c.data[off : off+seq]
	targets = c.data[off+1 : off+seq+1]
	return tokens, targets
}

// Batch is one micro-batch of token sequences (micro-batch size 1, matching
// the paper's setting: one sequence per micro-batch).
type Batch struct {
	// Tokens is the input sequence.
	Tokens []int
	// Targets is the next-token target sequence.
	Targets []int
}

// Batches draws n micro-batches.
func (c *Corpus) Batches(n, seq int, rng *tensor.RNG) []Batch {
	out := make([]Batch, n)
	for i := range out {
		tok, tgt := c.Sample(seq, rng)
		out[i] = Batch{Tokens: tok, Targets: tgt}
	}
	return out
}
