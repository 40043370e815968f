// A uniform facade over the two client types (CFS FsClient and the
// baseline client) so workload drivers and the MapReduce simulator run
// unchanged against every system in the comparison figures.
//
// The getters are typed: getfileinfo completes with Result<FileInfo> and
// listdir with Result<vector<string>>, exactly as the underlying FsClient
// reports them — drivers that only need a Status adapt at the call site
// instead of the facade downcasting for everyone. Ops a backend does not
// implement are declared by capability flag (has_listdir/has_add_block),
// never by probing whether a std::function happens to be set.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "baselines/client.hpp"
#include "cluster/client.hpp"
#include "workload/opstream.hpp"

namespace mams::workload {

struct ClientApi {
  using Cb = std::function<void(Status)>;
  using InfoCb = std::function<void(Result<fsns::FileInfo>)>;
  using ListCb = std::function<void(Result<std::vector<std::string>>)>;

  std::function<void(const std::string&, Cb)> create;
  std::function<void(const std::string&, Cb)> mkdir;
  std::function<void(const std::string&, Cb)> remove;
  std::function<void(const std::string&, const std::string&, Cb)> rename;
  std::function<void(const std::string&, InfoCb)> getfileinfo;
  std::function<void(const std::string&, ListCb)> listdir;
  std::function<void(const std::string&, Cb)> add_block;

  // Capability flags: which optional ops this backend implements. Drivers
  // consult these (and fall back to getfileinfo, the universal read) so
  // every Mix runs against every system.
  bool has_listdir = false;
  bool has_add_block = false;
};

/// Dispatches one generated Op through the facade, collapsing every typed
/// result to its Status and applying the capability fallbacks (ListDir and
/// AddBlock degrade to getfileinfo, the universal read). Shared by the
/// load engine's closed and open loops so both issue the exact same call
/// sequence for a given op stream.
inline void IssueOp(ClientApi& api, const Op& op, ClientApi::Cb done) {
  auto info_done = [&](ClientApi::Cb cb) -> ClientApi::InfoCb {
    return [cb = std::move(cb)](Result<fsns::FileInfo> r) { cb(r.status()); };
  };
  switch (op.kind) {
    case OpKind::kCreate:
      api.create(op.path, std::move(done));
      break;
    case OpKind::kMkdir:
      api.mkdir(op.path, std::move(done));
      break;
    case OpKind::kDelete:
      api.remove(op.path, std::move(done));
      break;
    case OpKind::kRename:
      api.rename(op.path, op.path2, std::move(done));
      break;
    case OpKind::kGetFileInfo:
      api.getfileinfo(op.path, info_done(std::move(done)));
      break;
    case OpKind::kListDir:
      if (api.has_listdir) {
        api.listdir(op.path, [done = std::move(done)](
                                 Result<std::vector<std::string>> r) {
          done(r.status());
        });
      } else {
        api.getfileinfo(op.path, info_done(std::move(done)));
      }
      break;
    case OpKind::kAddBlock:
      if (api.has_add_block) {
        api.add_block(op.path, std::move(done));
      } else {
        api.getfileinfo(op.path, info_done(std::move(done)));
      }
      break;
  }
}

inline ClientApi MakeApi(cluster::FsClient& client) {
  ClientApi api;
  api.create = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Create(p, std::move(cb));
  };
  api.mkdir = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Mkdir(p, std::move(cb));
  };
  api.remove = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Delete(p, std::move(cb));
  };
  api.rename = [&client](const std::string& s, const std::string& d,
                         ClientApi::Cb cb) {
    client.Rename(s, d, std::move(cb));
  };
  api.getfileinfo = [&client](const std::string& p, ClientApi::InfoCb cb) {
    client.GetFileInfo(p, std::move(cb));
  };
  api.listdir = [&client](const std::string& p, ClientApi::ListCb cb) {
    client.ListDir(p, std::move(cb));
  };
  api.add_block = [&client](const std::string& p, ClientApi::Cb cb) {
    client.AddBlock(p, std::move(cb));
  };
  api.has_listdir = true;
  api.has_add_block = true;
  return api;
}

inline ClientApi MakeApi(baselines::BaselineClient& client) {
  ClientApi api;
  api.create = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Create(p, std::move(cb));
  };
  api.mkdir = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Mkdir(p, std::move(cb));
  };
  api.remove = [&client](const std::string& p, ClientApi::Cb cb) {
    client.Delete(p, std::move(cb));
  };
  api.rename = [&client](const std::string& s, const std::string& d,
                         ClientApi::Cb cb) {
    client.Rename(s, d, std::move(cb));
  };
  // The baseline client is a timing model: its getfileinfo acknowledges
  // without metadata, so success maps to an empty FileInfo.
  api.getfileinfo = [&client](const std::string& p, ClientApi::InfoCb cb) {
    client.GetFileInfo(p, [cb = std::move(cb)](Status s) {
      if (s.ok()) {
        cb(fsns::FileInfo{});
      } else {
        cb(std::move(s));
      }
    });
  };
  // has_listdir/has_add_block stay false: drivers fall back to
  // getfileinfo for those ops.
  return api;
}

}  // namespace mams::workload
