// Minimal blocking HTTP/1.1 client for the serve_mixed workload. It keeps
// its connection open across requests unless a response says
// `Connection: close`, and counts every connect it makes, so a server that
// starts honouring keep-alive shows up as fewer connects per request without
// any change here.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class HttpClient {
 public:
  /// With `busy_poll` the client spins on its socket instead of sleeping
  /// in recv, so its own wake-ups never add to the latency it measures.
  explicit HttpClient(std::uint16_t port, bool busy_poll = false)
      : port_(port), busy_poll_(busy_poll) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Response {
    int code{0};
    std::string body;
  };

  /// Sends `GET target`. Returns false on a transport error (the response
  /// is then unset); a request on a reused connection that the server had
  /// already closed is retried once on a fresh connection.
  bool get(const std::string& target, Response& out);

  [[nodiscard]] std::uint64_t connects() const { return connects_; }

 private:
  bool connect_once();
  bool exchange(const std::string& request, Response& out, bool& server_closes);
  void close_fd();

  std::uint16_t port_;
  bool busy_poll_;
  int fd_{-1};
  std::uint64_t connects_{0};
  std::string buf_;  ///< Bytes read past the current response.
};

}  // namespace perfbench
