/**
 * @file
 * Small shared string helpers for the config-parsing surfaces (the
 * workload factory's spec grammar and the sweep ConfigBinder), so
 * case-folding rules cannot drift between them.
 */

#ifndef NEUMMU_COMMON_TEXT_HH
#define NEUMMU_COMMON_TEXT_HH

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace neummu {

/** ASCII-lowercased copy of @p s. */
inline std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return char(std::tolower(c)); });
    return out;
}

/** @p items joined by @p sep ("a|b|c"). */
inline std::string
joined(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += sep;
        out += item;
    }
    return out;
}

} // namespace neummu

#endif // NEUMMU_COMMON_TEXT_HH
