/**
 * @file
 * capuprof report rendering + profile JSON persistence.
 *
 * One Profile, three renderings: `text` (aligned tables for terminals),
 * `markdown` (CI artifacts / PR comments), `json` (machine-readable; the
 * input format of `capuprof diff` and loadProfileJson). The JSON schema
 * is versioned via the top-level "capuprof" field; digests are serialized
 * as fixed-width hex strings because they do not fit a double.
 */

#ifndef CAPU_PROF_REPORT_HH
#define CAPU_PROF_REPORT_HH

#include <iosfwd>
#include <string>

#include "prof/profile.hh"
#include "support/json.hh"

namespace capu::prof
{

enum class ReportFormat
{
    Text,
    Markdown,
    Json,
};

/** Parse "text" / "md" / "markdown" / "json"; false on anything else. */
bool parseReportFormat(const std::string &name, ReportFormat &out);

/** Render `profile` to `os`; `topK` caps the costly-tensor table. */
void renderProfile(std::ostream &os, const Profile &profile,
                   ReportFormat format, std::size_t topK = 10);

/** The JSON rendering, to a file. False (with warn) on I/O failure. */
bool writeProfileJsonFile(const std::string &path, const Profile &profile);

/**
 * Load a profile the JSON renderer wrote, from its parsed JSON (read the
 * file with json::parseFile). Returns false (reason in *err when
 * provided) when `root` is not a capuprof profile.
 */
bool loadProfileJson(const json::Value &root, Profile &out,
                     std::string *err = nullptr);

} // namespace capu::prof

#endif // CAPU_PROF_REPORT_HH
