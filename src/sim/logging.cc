#include "logging.hh"

namespace pktchase
{

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    // Control bytes (a newline or NUL echoed from a malformed spec or
    // argument) are escaped, so a fatal error is always one line.
    std::string line;
    for (const char c : msg) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte == 0x7f) {
            char esc[5];
            std::snprintf(esc, sizeof(esc), "\\x%02x", byte);
            line += esc;
        } else {
            line.push_back(c);
        }
    }
    std::fprintf(stderr, "fatal: %s\n", line.c_str());
    std::exit(1);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace pktchase
