#include "net/packet.h"

namespace tn::net {

std::string_view to_string(ProbeProtocol protocol) noexcept {
  switch (protocol) {
    case ProbeProtocol::kIcmp: return "ICMP";
    case ProbeProtocol::kUdp: return "UDP";
    case ProbeProtocol::kTcp: return "TCP";
  }
  return "?";
}

std::string_view to_string(ResponseType type) noexcept {
  switch (type) {
    case ResponseType::kNone: return "NONE";
    case ResponseType::kEchoReply: return "ECHO_REPLY";
    case ResponseType::kTtlExceeded: return "TTL_EXCEEDED";
    case ResponseType::kPortUnreachable: return "PORT_UNREACHABLE";
    case ResponseType::kHostUnreachable: return "HOST_UNREACHABLE";
    case ResponseType::kTcpReset: return "TCP_RESET";
  }
  return "?";
}

bool is_alive_reply(ProbeProtocol protocol, ResponseType type) noexcept {
  switch (protocol) {
    case ProbeProtocol::kIcmp: return type == ResponseType::kEchoReply;
    case ProbeProtocol::kUdp: return type == ResponseType::kPortUnreachable;
    case ProbeProtocol::kTcp: return type == ResponseType::kTcpReset;
  }
  return false;
}

std::string ProbeReply::to_string() const {
  if (is_none()) return "<none>";
  std::string text = "<" + responder.to_string() + ", ";
  text += tn::net::to_string(type);
  text += '>';
  return text;
}

}  // namespace tn::net
