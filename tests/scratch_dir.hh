/**
 * @file
 * ScratchDir: a fresh, uniquely named directory under the system temp
 * dir, removed with its contents when the object goes out of scope.
 * Tests use it for output directories and private trace caches.
 */

#ifndef VP_TESTS_SCRATCH_DIR_HH
#define VP_TESTS_SCRATCH_DIR_HH

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include <unistd.h>

namespace vp::test {

class ScratchDir
{
  public:
    ScratchDir()
    {
        std::string templ = (std::filesystem::temp_directory_path() /
                             "vp-test-XXXXXX")
                                    .string();
        if (::mkdtemp(templ.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        path_ = templ;
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::filesystem::path &path() const { return path_; }

  private:
    std::filesystem::path path_;
};

} // namespace vp::test

#endif // VP_TESTS_SCRATCH_DIR_HH
