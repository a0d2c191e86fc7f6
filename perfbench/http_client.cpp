#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <strings.h>

namespace perfbench {

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Value of header `name` in the response head, "" when absent.
std::string header_value(const std::string& head, const char* name) {
  const std::size_t len = std::strlen(name);
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t start = pos + 2;
    const std::size_t end = head.find("\r\n", start);
    const std::string line = head.substr(start, end - start);
    if (line.size() > len && line[len] == ':' && strncasecmp(line.c_str(), name, len) == 0) {
      std::size_t v = len + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      return line.substr(v);
    }
    pos = end;
  }
  return "";
}

}  // namespace

HttpClient::~HttpClient() { close_fd(); }

void HttpClient::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::connect_once() {
  close_fd();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ++connects_;
  int rc = 0;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    close_fd();
    return false;
  }
  return true;
}

bool HttpClient::exchange(const std::string& request, Response& out, bool& server_closes) {
  if (!send_all(fd_, request)) return false;
  char chunk[16384];
  std::size_t head_end = std::string::npos;
  const auto read_more = [&]() {
    ssize_t n = 0;
    const int flags = busy_poll_ ? MSG_DONTWAIT : 0;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), flags);
    } while (n < 0 && (errno == EINTR || (busy_poll_ && errno == EAGAIN)));
    if (n > 0) buf_.append(chunk, static_cast<std::size_t>(n));
    return n > 0;
  };
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!read_more()) return false;
  }
  const std::string head = buf_.substr(0, head_end);
  int code = 0;
  if (std::sscanf(head.c_str(), "HTTP/%*d.%*d %d", &code) != 1) return false;
  const std::string length = header_value(head, "Content-Length");
  const std::string connection = header_value(head, "Connection");
  server_closes = strcasecmp(connection.c_str(), "close") == 0 ||
                  head.compare(0, 8, "HTTP/1.0") == 0;
  const std::size_t body_start = head_end + 4;
  if (length.empty()) {
    // No length: the body runs to the end of the connection.
    while (read_more()) {
    }
    out.body = buf_.substr(body_start);
    buf_.clear();
    server_closes = true;
  } else {
    const std::size_t want = std::strtoul(length.c_str(), nullptr, 10);
    while (buf_.size() < body_start + want) {
      if (!read_more()) return false;
    }
    out.body = buf_.substr(body_start, want);
    buf_.erase(0, body_start + want);
  }
  out.code = code;
  return true;
}

bool HttpClient::get(const std::string& target, Response& out) {
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: neat-perfbench\r\n\r\n";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && !connect_once()) return false;
    bool server_closes = false;
    if (exchange(request, out, server_closes)) {
      if (server_closes) close_fd();
      return true;
    }
    close_fd();
    if (!reused) return false;  // a fresh connection failed: give up
  }
  return false;
}

}  // namespace perfbench
