// The deterministic state machine replicated by the coordination ensemble.
// Commands are serialized to paxos::Value bytes; every replica applies the
// same command stream and converges on the same set of group views.
#pragma once

#include <map>
#include <string>

#include "common/bytes.hpp"
#include "coord/view.hpp"
#include "paxos/types.hpp"

namespace mams::coord {

enum class CmdKind : std::uint8_t {
  kRegister = 1,    ///< node joins group with a state (opens/refreshes)
  kSetState = 2,    ///< state flip (self or fenced by the lock holder)
  kGrantLock = 3,   ///< election result: holder + new fence token
  kReleaseLock = 4, ///< voluntary release by the holder
  kExpire = 5,      ///< session expiry: mark down, free lock if held
  kPublishMap = 6,  ///< install a newer namespace partition map
};

struct Command {
  CmdKind kind = CmdKind::kRegister;
  GroupId group = 0;
  NodeId node = kInvalidNode;
  ServerState state = ServerState::kDown;
  // kPublishMap only. The map travels as opaque bytes with its epoch
  // alongside, so the coordination layer orders publications without
  // depending on the shard module's wire format.
  std::uint64_t epoch = 0;
  // The explicit {} lets `Command{kind, group, node, state}` omit it
  // without -Wmissing-field-initializers.
  std::string payload{};

  paxos::Value Serialize() const {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(kind));
    w.U32(group);
    w.U32(node);
    w.U8(static_cast<std::uint8_t>(state));
    w.U64(epoch);
    w.Str(payload);
    return std::string(w.bytes().data(), w.bytes().size());
  }

  static Command Deserialize(const paxos::Value& v) {
    ByteReader r(v.data(), v.size());
    Command c;
    c.kind = static_cast<CmdKind>(r.U8());
    c.group = r.U32();
    c.node = r.U32();
    c.state = static_cast<ServerState>(r.U8());
    c.epoch = r.U64();
    c.payload = r.Str();
    return c;
  }
};

class ViewStateMachine {
 public:
  /// Applies one command; returns the group whose view changed.
  GroupId Apply(const Command& c) {
    if (c.kind == CmdKind::kPublishMap) {
      // Epoch-ordered last-writer-wins; stale publications are no-ops so a
      // delayed duplicate can never roll the fleet's routing back.
      if (c.epoch > map_epoch_) {
        map_epoch_ = c.epoch;
        map_bytes_.assign(c.payload.begin(), c.payload.end());
      }
      return c.group;
    }
    GroupView& view = views_[c.group];
    view.group = c.group;
    switch (c.kind) {
      case CmdKind::kRegister:
      case CmdKind::kSetState:
        view.states[c.node] = c.state;
        break;
      case CmdKind::kGrantLock:
        view.lock_holder = c.node;
        ++view.fence_token;
        break;
      case CmdKind::kReleaseLock:
        if (view.lock_holder == c.node) view.lock_holder = kInvalidNode;
        break;
      case CmdKind::kExpire:
        if (view.states.contains(c.node)) {
          view.states[c.node] = ServerState::kDown;
        }
        if (view.lock_holder == c.node) view.lock_holder = kInvalidNode;
        break;
      case CmdKind::kPublishMap:
        break;  // handled above; keeps the switch exhaustive
    }
    ++view.version;
    return c.group;
  }

  const GroupView& view(GroupId g) { return views_[g]; }
  const std::map<GroupId, GroupView>& views() const noexcept { return views_; }

  std::uint64_t map_epoch() const noexcept { return map_epoch_; }
  const std::vector<char>& map_bytes() const noexcept { return map_bytes_; }

  void Reset() {
    views_.clear();
    map_epoch_ = 0;
    map_bytes_.clear();
  }

 private:
  std::map<GroupId, GroupView> views_;
  std::uint64_t map_epoch_ = 0;
  std::vector<char> map_bytes_;
};

}  // namespace mams::coord
