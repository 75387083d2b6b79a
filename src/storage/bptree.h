// In-memory B+-tree with duplicate keys, leaf chaining and range scans.
//
// This is the index structure behind minirel secondary indexes: point
// lookups on ids (paper Section 5.1: "indexes on such ids can efficiently
// join these relations") and range scans on timestamps / (segno, id)
// composites (Section 6.3: "all indexes are now augmented with a segno
// information").
#ifndef ARCHIS_STORAGE_BPTREE_H_
#define ARCHIS_STORAGE_BPTREE_H_

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

namespace archis::storage {

/// A B+-tree multimap from Key to Value.
///
/// Keys must be totally ordered by `operator<`. Duplicate keys are allowed;
/// a range scan yields duplicates in insertion order. Nodes hold up to
/// `kFanout` entries and split at overflow.
template <typename Key, typename Value>
class BPlusTree {
 public:
  static constexpr size_t kFanout = 64;

  BPlusTree() : root_(NewLeaf()) {}

  /// Inserts a (key, value) pair. Infallible: purely in-memory, duplicate
  /// keys are allowed, and node splits cannot fail.
  // archis-lint: allow(void-mutator) -- no error path exists by design
  void Insert(const Key& key, const Value& value) {
    InsertAt(key, value, /*rightmost=*/false);
  }

  /// Inserts a (key, value) pair whose key is >= every key in the tree,
  /// descending the rightmost path without a search: bulk loads of sorted
  /// runs. The tree ends up exactly as Insert would leave it.
  // archis-lint: allow(void-mutator) -- no error path exists by design
  void Append(const Key& key, const Value& value) {
    assert(AtOrPastEnd(key));
    InsertAt(key, value, /*rightmost=*/true);
  }

  /// The value of the last entry with key == `key` in scan order (for
  /// duplicates, the most recently inserted one still present); nullptr
  /// when there is none.
  const Value* FindLast(const Key& key) const {
    // Descend like an insert of `key`: the leaf reached holds the
    // position just past every entry <= `key`.
    const Node* node = root_.get();
    while (!node->is_leaf) node = node->children[ChildIndex(node, key)].get();
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    if (it != node->keys.begin() && !(*(it - 1) < key)) {
      return &node->values[static_cast<size_t>(it - node->keys.begin()) - 1];
    }
    // That leaf holds no entry for `key` (erases never rebalance, so the
    // last one may sit in an earlier leaf): walk the run from its start.
    const Value* last = nullptr;
    Lookup(key, [&last](const Key&, const Value& v) {
      last = &v;
      return true;
    });
    return last;
  }

  /// Calls `fn(key, value)` for every entry with key == `key`; stops early
  /// when `fn` returns false.
  void Lookup(const Key& key,
              const std::function<bool(const Key&, const Value&)>& fn) const {
    ScanRange(key, key, fn);
  }

  /// Calls `fn` for every entry with lo <= key <= hi in key order; stops
  /// early when `fn` returns false.
  void ScanRange(const Key& lo, const Key& hi,
                 const std::function<bool(const Key&,
                                          const Value&)>& fn) const {
    const Node* leaf = FindLeaf(root_.get(), lo);
    while (leaf != nullptr) {
      auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo);
      size_t i = static_cast<size_t>(it - leaf->keys.begin());
      for (; i < leaf->keys.size(); ++i) {
        if (hi < leaf->keys[i]) return;
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next_leaf;
    }
  }

  /// Calls `fn` for every entry in key order.
  void ScanAll(const std::function<bool(const Key&,
                                        const Value&)>& fn) const {
    const Node* leaf = LeftmostLeaf();
    while (leaf != nullptr) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next_leaf;
    }
  }

  /// Removes all entries matching (key, value); returns how many.
  size_t Erase(const Key& key, const Value& value) {
    size_t removed = 0;
    Node* leaf = FindLeafMutable(root_.get(), key);
    while (leaf != nullptr) {
      bool past = false;
      for (size_t i = 0; i < leaf->keys.size();) {
        if (key < leaf->keys[i]) { past = true; break; }
        if (!(leaf->keys[i] < key) && leaf->values[i] == value) {
          leaf->keys.erase(leaf->keys.begin() + static_cast<long>(i));
          leaf->values.erase(leaf->values.begin() + static_cast<long>(i));
          ++removed;
        } else {
          ++i;
        }
      }
      if (past) break;
      leaf = leaf->next_leaf;
    }
    size_ -= removed;
    return removed;
  }

  size_t size() const { return size_; }
  size_t height() const { return height_; }

  /// Approximate memory footprint of index structure in bytes, counted as
  /// storage overhead for Figure 7/11 (clustering-index overhead).
  uint64_t ApproxBytes() const {
    return size_ * (sizeof(Key) + sizeof(Value)) * 5 / 4;  // ~25% slack
  }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    // Leaves:
    std::vector<Value> values;
    Node* next_leaf = nullptr;
    // Internal: children[i] covers keys < keys[i]; children.back() the rest.
    std::vector<std::unique_ptr<Node>> children;
  };

  struct InsertResult {
    bool split = false;
    Key split_key{};
    std::unique_ptr<Node> right;
  };

  // archis-lint: allow(void-mutator) -- no error path exists by design
  void InsertAt(const Key& key, const Value& value, bool rightmost) {
    InsertResult r = InsertRec(root_.get(), key, value, rightmost);
    if (r.split) {
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->keys.push_back(r.split_key);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(r.right));
      root_ = std::move(new_root);
      ++height_;
    }
    ++size_;
  }

  static std::unique_ptr<Node> NewLeaf() {
    auto n = std::make_unique<Node>();
    n->is_leaf = true;
    return n;
  }

  InsertResult InsertRec(Node* node, const Key& key, const Value& value,
                         bool rightmost) {
    if (node->is_leaf) {
      auto it = rightmost ? node->keys.end()
                          : std::upper_bound(node->keys.begin(),
                                             node->keys.end(), key);
      size_t pos = static_cast<size_t>(it - node->keys.begin());
      node->keys.insert(it, key);
      node->values.insert(node->values.begin() + static_cast<long>(pos),
                          value);
      if (node->keys.size() <= kFanout) return {};
      return SplitLeaf(node);
    }
    size_t child =
        rightmost ? node->children.size() - 1 : ChildIndex(node, key);
    InsertResult r =
        InsertRec(node->children[child].get(), key, value, rightmost);
    if (!r.split) return {};
    node->keys.insert(node->keys.begin() + static_cast<long>(child),
                      r.split_key);
    node->children.insert(
        node->children.begin() + static_cast<long>(child) + 1,
        std::move(r.right));
    if (node->keys.size() <= kFanout) return {};
    return SplitInternal(node);
  }

  InsertResult SplitLeaf(Node* node) {
    auto right = NewLeaf();
    size_t mid = node->keys.size() / 2;
    right->keys.assign(
        std::make_move_iterator(node->keys.begin() + static_cast<long>(mid)),
        std::make_move_iterator(node->keys.end()));
    right->values.assign(
        std::make_move_iterator(node->values.begin() + static_cast<long>(mid)),
        std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right.get();
    return {true, right->keys.front(), std::move(right)};
  }

  InsertResult SplitInternal(Node* node) {
    auto right = std::make_unique<Node>();
    right->is_leaf = false;
    size_t mid = node->keys.size() / 2;
    Key up_key = node->keys[mid];
    right->keys.assign(
        std::make_move_iterator(node->keys.begin() + static_cast<long>(mid) +
                                1),
        std::make_move_iterator(node->keys.end()));
    for (size_t i = mid + 1; i < node->children.size(); ++i) {
      right->children.push_back(std::move(node->children[i]));
    }
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    return {true, up_key, std::move(right)};
  }

  static size_t ChildIndex(const Node* node, const Key& key) {
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    return static_cast<size_t>(it - node->keys.begin());
  }

  const Node* FindLeaf(const Node* node, const Key& key) const {
    while (!node->is_leaf) {
      // Descend via lower_bound so duplicate runs that straddle a split key
      // are entered from their leftmost leaf.
      auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
      node = node->children[static_cast<size_t>(
          it - node->keys.begin())].get();
    }
    return node;
  }

  Node* FindLeafMutable(Node* node, const Key& key) {
    return const_cast<Node*>(FindLeaf(node, key));
  }

  /// Whether an insert of `key` would descend the rightmost path and land
  /// at the end of the last leaf (the Append precondition).
  bool AtOrPastEnd(const Key& key) const {
    for (const Node* n = root_.get();; n = n->children.back().get()) {
      if (!n->keys.empty() && key < n->keys.back()) return false;
      if (n->is_leaf) return true;
    }
  }

  const Node* LeftmostLeaf() const {
    const Node* n = root_.get();
    while (!n->is_leaf) n = n->children.front().get();
    return n;
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace archis::storage

#endif  // ARCHIS_STORAGE_BPTREE_H_
