// Central registry of message-type id ranges. Keeping every id in one file
// prevents collisions between protocols developed independently.
#pragma once

#include "net/message.hpp"

namespace mams::net {

// 0x00xx — coordination service (sessions, znodes, watches, lock)
inline constexpr MsgType kCoordRequest = 0x0001;
inline constexpr MsgType kCoordResponse = 0x0002;
inline constexpr MsgType kCoordWatchEvent = 0x0003;
inline constexpr MsgType kCoordHeartbeat = 0x0004;

// 0x01xx — Paxos
inline constexpr MsgType kPaxosPrepare = 0x0101;
inline constexpr MsgType kPaxosPromise = 0x0102;
inline constexpr MsgType kPaxosAccept = 0x0103;
inline constexpr MsgType kPaxosAccepted = 0x0104;
inline constexpr MsgType kPaxosLearn = 0x0105;

// 0x02xx — journal synchronization (active <-> standby 2PC)
inline constexpr MsgType kJournalPrepare = 0x0201;
inline constexpr MsgType kJournalAck = 0x0202;

// 0x03xx — SSP (shared storage pool)
inline constexpr MsgType kSspWrite = 0x0301;
inline constexpr MsgType kSspWriteAck = 0x0302;
inline constexpr MsgType kSspRead = 0x0303;
inline constexpr MsgType kSspReadReply = 0x0304;
inline constexpr MsgType kSspList = 0x0305;
inline constexpr MsgType kSspListReply = 0x0306;

// 0x04xx — client <-> metadata server
inline constexpr MsgType kClientRequest = 0x0401;
inline constexpr MsgType kClientResponse = 0x0402;

// 0x05xx — replica-group control (failover, renewing, registration)
inline constexpr MsgType kGroupRegister = 0x0501;
inline constexpr MsgType kGroupRegisterAck = 0x0502;
inline constexpr MsgType kRenewCommand = 0x0503;
inline constexpr MsgType kRenewProgress = 0x0504;
inline constexpr MsgType kRenewJournalFetch = 0x0505;
inline constexpr MsgType kRenewJournalReply = 0x0506;

// 0x06xx — data servers (block reports, heartbeats)
inline constexpr MsgType kBlockReport = 0x0601;
inline constexpr MsgType kBlockReportAck = 0x0602;

// 0x07xx — baseline systems (the BackupNode edit stream)
inline constexpr MsgType kNnEditStream = 0x0701;

// 0x08xx — generic test payloads
inline constexpr MsgType kTestPing = 0x0801;
inline constexpr MsgType kTestPong = 0x0802;

// 0x09xx — shard migration (active <-> active transfer and control)
inline constexpr MsgType kShardTransfer = 0x0901;
inline constexpr MsgType kShardTransferAck = 0x0902;
inline constexpr MsgType kShardControl = 0x0903;
inline constexpr MsgType kShardControlAck = 0x0904;

// 0x0axx — client cache lease protocol (revocation push and ack)
inline constexpr MsgType kLeaseRevoke = 0x0a01;
inline constexpr MsgType kLeaseRevokeAck = 0x0a02;

/// Human-readable name for a message type, used to key per-type network
/// metrics ("net.sent.journal_prepare" etc.). Unknown ids map to "unknown"
/// so forgetting to extend this table cannot crash a bench.
inline const char* MsgTypeName(MsgType type) noexcept {
  switch (type) {
    case kCoordRequest: return "coord_request";
    case kCoordResponse: return "coord_response";
    case kCoordWatchEvent: return "coord_watch_event";
    case kCoordHeartbeat: return "coord_heartbeat";
    case kPaxosPrepare: return "paxos_prepare";
    case kPaxosPromise: return "paxos_promise";
    case kPaxosAccept: return "paxos_accept";
    case kPaxosAccepted: return "paxos_accepted";
    case kPaxosLearn: return "paxos_learn";
    case kJournalPrepare: return "journal_prepare";
    case kJournalAck: return "journal_ack";
    case kSspWrite: return "ssp_write";
    case kSspWriteAck: return "ssp_write_ack";
    case kSspRead: return "ssp_read";
    case kSspReadReply: return "ssp_read_reply";
    case kSspList: return "ssp_list";
    case kSspListReply: return "ssp_list_reply";
    case kClientRequest: return "client_request";
    case kClientResponse: return "client_response";
    case kGroupRegister: return "group_register";
    case kGroupRegisterAck: return "group_register_ack";
    case kRenewCommand: return "renew_command";
    case kRenewProgress: return "renew_progress";
    case kRenewJournalFetch: return "renew_journal_fetch";
    case kRenewJournalReply: return "renew_journal_reply";
    case kBlockReport: return "block_report";
    case kBlockReportAck: return "block_report_ack";
    case kNnEditStream: return "nn_edit_stream";
    case kTestPing: return "test_ping";
    case kTestPong: return "test_pong";
    case kShardTransfer: return "shard_transfer";
    case kShardTransferAck: return "shard_transfer_ack";
    case kShardControl: return "shard_control";
    case kShardControlAck: return "shard_control_ack";
    case kLeaseRevoke: return "lease_revoke";
    case kLeaseRevokeAck: return "lease_revoke_ack";
    default: return "unknown";
  }
}

}  // namespace mams::net
