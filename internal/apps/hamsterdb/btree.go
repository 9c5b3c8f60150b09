package hamsterdb

// btree is an in-memory B+tree: the storage engine HamsterDB builds on.
// Keys are uint64, values are byte slices. The tree itself is not
// concurrency-safe — HamsterDB serializes every operation behind one global
// lock, which is exactly the contention profile the paper measures.

// btreeOrder is the fan-out: max children per inner node.
const btreeOrder = 32

// node is either an inner node (children non-nil) or a leaf (vals non-nil).
type node struct {
	keys     []uint64
	children []*node // inner only: len(children) == len(keys)+1
	vals     [][]byte
}

func (n *node) leaf() bool { return n.children == nil }

// btree is the tree root and entry counter.
type btree struct {
	root  *node
	count int
}

func newBTree() *btree {
	return &btree{root: &node{}}
}

// search returns the index of the first key >= k in n.keys.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the value for k, or nil.
func (t *btree) find(k uint64) []byte {
	n := t.root
	for !n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			i++ // equal keys descend right in this B+tree
		}
		n = n.children[i]
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i]
	}
	return nil
}

// insert upserts (k, v) and reports whether a new key was added.
func (t *btree) insert(k uint64, v []byte) bool {
	added, splitKey, sibling := t.insertInto(t.root, k, v)
	if sibling != nil {
		t.root = &node{
			keys:     []uint64{splitKey},
			children: []*node{t.root, sibling},
		}
	}
	if added {
		t.count++
	}
	return added
}

// insertInto recursively inserts; on child split it returns the separator
// key and new right sibling.
func (t *btree) insertInto(n *node, k uint64, v []byte) (added bool, splitKey uint64, sibling *node) {
	if n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v
			return false, 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) >= btreeOrder {
			mid := len(n.keys) / 2
			right := &node{
				keys: append([]uint64(nil), n.keys[mid:]...),
				vals: append([][]byte(nil), n.vals[mid:]...),
			}
			n.keys = n.keys[:mid]
			n.vals = n.vals[:mid]
			return true, right.keys[0], right
		}
		return true, 0, nil
	}

	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	added, sk, sib := t.insertInto(n.children[i], k, v)
	if sib != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sk
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = sib
		if len(n.keys) >= btreeOrder {
			mid := len(n.keys) / 2
			right := &node{
				keys:     append([]uint64(nil), n.keys[mid+1:]...),
				children: append([]*node(nil), n.children[mid+1:]...),
			}
			upKey := n.keys[mid]
			n.keys = n.keys[:mid]
			n.children = n.children[:mid+1]
			return added, upKey, right
		}
	}
	return added, 0, nil
}
