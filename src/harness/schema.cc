#include "harness/schema.hh"

namespace slip::schema
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

} // namespace

void
JsonWriter::value(const std::string &s)
{
    out_ += '"';
    out_ += jsonEscape(s);
    out_ += '"';
}

void
JsonWriter::value(const std::map<std::string, Histogram> &hists)
{
    std::string out;
    for (const auto &[target, h] : hists) {
        if (h.count() == 0)
            continue;
        if (!out.empty())
            out += ';';
        out += target;
        out += '=';
        bool firstBucket = true;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
            if (!h.bucket(b))
                continue;
            if (!firstBucket)
                out += ',';
            firstBucket = false;
            out += std::to_string(b) + ':' + std::to_string(h.bucket(b));
        }
    }
    value(out);
}

bool
JsonReader::nextName(std::string &name)
{
    bool quoted = false;
    return (pos_ == 0 || s_[++pos_] == ',') && scalar(name, quoted) &&
           quoted && s_[++pos_] == ':';
}

bool
JsonReader::scalar(std::string &text, bool &quoted)
{
    size_t p = pos_ + 1;
    text.clear();
    quoted = s_[p] == '"';
    if (!quoted) {
        // A bare token runs to the next delimiter; the closing brace
        // guarantees there is one.
        const size_t end = s_.find_first_of(",]}", p);
        text = s_.substr(p, end - p);
        pos_ = end - 1;
        return end > p && text.find_first_of("\"[{:") == std::string::npos;
    }
    for (++p; p < s_.size(); ++p) {
        char c = s_[p];
        if (c == '"') {
            pos_ = p;
            return true;
        }
        if (c == '\\') {
            if (++p == s_.size())
                return false;
            switch (s_[p]) {
              case '"':
              case '\\':
              case '/':
                c = s_[p];
                break;
              case 'n':
                c = '\n';
                break;
              case 'r':
                c = '\r';
                break;
              case 't':
                c = '\t';
                break;
              default:
                return false;
            }
        }
        text += c;
    }
    return false;
}

bool
JsonReader::lineKey(const std::string &line, TrialKey &key)
{
    JsonReader r(line);
    std::string name, text;
    bool quoted = false, found = false;
    while (r.ok_ && r.pos_ + 2 < line.size()) {
        r.ok_ = r.nextName(name) &&
                (name == "key" ? (found = r.value(key))
                               : r.scalar(text, quoted));
    }
    return found && r.ok();
}

bool
JsonReader::parse(const std::string &t, bool quoted, std::string &v)
{
    v = t;
    return quoted;
}

bool
JsonReader::parse(const std::string &t, bool quoted, bool &v)
{
    v = t == "1";
    return !quoted && (t == "0" || t == "1");
}

bool
JsonReader::parse(const std::string &t, bool quoted, TrialKey &v)
{
    if (!quoted || t.size() != 32 ||
        t.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    std::from_chars(t.data(), t.data() + 16, v.hi, 16);
    std::from_chars(t.data() + 16, t.data() + 32, v.lo, 16);
    return true;
}

bool
JsonReader::parse(const std::string &text, bool quoted,
                  std::map<std::string, Histogram> &out)
{
    out.clear();
    size_t pos = 0;
    while (quoted && pos < text.size()) {
        size_t end = text.find(';', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string part = text.substr(pos, end - pos);
        pos = end + 1;
        const size_t eq = part.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        Histogram &h = out[part.substr(0, eq)];
        const char *p = part.data() + eq;
        const char *stop = part.data() + part.size();
        while (p != stop) {
            unsigned bucket = 0;
            uint64_t n = 0;
            auto r = std::from_chars(p + 1, stop, bucket);
            if (r.ec != std::errc() || r.ptr == stop || *r.ptr != ':' ||
                bucket >= Histogram::kBuckets)
                return false;
            r = std::from_chars(r.ptr + 1, stop, n);
            if (r.ec != std::errc() || (r.ptr != stop && *r.ptr != ','))
                return false;
            h.addToBucket(bucket, n);
            p = r.ptr;
        }
    }
    return quoted;
}

} // namespace slip::schema
